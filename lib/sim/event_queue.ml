(* A binary min-heap over (time, seq) kept in three parallel arrays, so
   an event costs no heap cell: [times] is an unboxed float array,
   [seqs] breaks ties by insertion order, [payloads] holds the events.
   Sifts move a hole instead of swapping, and every index below is
   checked against [size] before the unchecked accesses. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let clear t =
  t.size <- 0;
  t.next_seq <- 0

(* The payload array cannot be allocated before the first payload
   exists, so capacity starts at 0 and the first push allocates. *)
let grow t filler =
  let cap = max 16 (2 * t.size) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let payloads = Array.make cap filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if not (Float.is_finite time) || time < 0.0 then invalid_arg "Event_queue.push: bad time";
  if t.size = Array.length t.times then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  (* Sift up: a new event has the largest seq, so it only passes
     parents with a strictly later time. *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set payloads !i payload;
  t.size <- t.size + 1

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  Array.unsafe_get t.times 0

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let top = Array.unsafe_get payloads 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last event down from the root's hole. Its slot at [n]
       keeps a stale reference until a later push overwrites it. *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let payload = Array.unsafe_get payloads n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let lt = Array.unsafe_get times l and rt = Array.unsafe_get times r in
            if rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
            else l
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set payloads !i (Array.unsafe_get payloads c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set payloads !i payload
  end;
  top

let pop t =
  if t.size = 0 then None
  else
    let time = min_time t in
    Some (time, take t)
