type 'a cell = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a cell option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = Array.make 16 None; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get t i =
  match t.heap.(i) with
  | Some c -> c
  | None -> assert false

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let push t ~time payload =
  if not (Float.is_finite time) || time < 0.0 then invalid_arg "Event_queue.push: bad time";
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) None in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- Some { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before (get t !i) (get t ((!i - 1) / 2)) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- None;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before (get t l) (get t !smallest) then smallest := l;
      if r < t.size && before (get t r) (get t !smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap t !i !smallest;
        i := !smallest
      end
    done;
    Some (top.time, top.payload)
  end
