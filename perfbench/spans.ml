(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, recorded by the
   benchmark around that call: a name, start and end (host monotonic
   nanoseconds), the enclosing span (-1 for a root) and the op the call
   belongs to. Spans live in parallel growable int arrays, so recording
   one costs two clock reads and a few stores; nothing is written out
   until {!write_csv} at the end of the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (* reversed: id k is element (count-1-k) *)
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable len : int;
  mutable cur : int;  (* innermost open span, -1 when none *)
  mutable cur_op : int;
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 32;
    name_list = [];
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    len = 0;
    cur = -1;
    cur_op = -1;
  }

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some k -> k
  | None ->
      let k = Hashtbl.length t.names in
      Hashtbl.replace t.names s k;
      t.name_list <- s :: t.name_list;
      k

let names t = Array.of_list (List.rev t.name_list)

let length t = t.len

let set_op t op = t.cur_op <- op

(* Relabel the spans recorded since index [from] (and the ones still to
   come) as belonging to [op] — for an event loop that learns which op
   a step serves only after popping it. *)
let retag t ~from op =
  for i = from to t.len - 1 do
    t.op.(i) <- op
  done;
  t.cur_op <- op

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- extend t.name;
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent;
  t.op <- extend t.op

let enter t nid =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- nid;
  t.parent.(i) <- t.cur;
  t.op.(i) <- t.cur_op;
  t.cur <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.cur <- t.parent.(i)

let with_span t nid f =
  let i = enter t nid in
  match f () with
  | x ->
      leave t i;
      x
  | exception e ->
      leave t i;
      raise e

(* Per-name totals. Self time is a span's duration minus the durations
   of its direct children. *)
type summary = { calls : int; total_ns : int; self_ns : int }

let self_times t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  Array.init t.len (fun i -> t.stop.(i) - t.start.(i) - child.(i))

let summarize ?(from = 0) t =
  let self = self_times t in
  let k = Hashtbl.length t.names in
  let calls = Array.make k 0 and total = Array.make k 0 and selfs = Array.make k 0 in
  for i = from to t.len - 1 do
    let n = t.name.(i) in
    calls.(n) <- calls.(n) + 1;
    total.(n) <- total.(n) + (t.stop.(i) - t.start.(i));
    selfs.(n) <- selfs.(n) + self.(i)
  done;
  Array.to_list
    (Array.mapi
       (fun n s -> (s, { calls = calls.(n); total_ns = total.(n); self_ns = selfs.(n) }))
       (names t))

(* For every root span: the self times of its descendants must add up
   to no more than the root's own duration, and every span must close
   no earlier than it opened, inside its parent's interval. Returns the
   number of violating roots. *)
let check_nesting t =
  let self = self_times t in
  let root_of = Array.make t.len (-1) in
  let desc_self = Array.make t.len 0 in
  let bad = Array.make t.len false in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    let r = if p < 0 then i else root_of.(p) in
    root_of.(i) <- r;
    if t.stop.(i) < t.start.(i) then bad.(r) <- true;
    if p >= 0 then begin
      desc_self.(r) <- desc_self.(r) + self.(i);
      if t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p) then bad.(r) <- true
    end
  done;
  let violations = ref 0 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 && (bad.(i) || desc_self.(i) > t.stop.(i) - t.start.(i)) then
      incr violations
  done;
  !violations

(* Writes the set-up spans and every span of each [every]-th op (all of
   an op's spans share its id, so sampled ops keep whole trees); returns
   the number of spans written. *)
let write_csv ~every t path =
  let names = names t in
  let oc = open_out path in
  output_string oc "span,name,start_ns,end_ns,parent,op\n";
  let written = ref 0 in
  for i = 0 to t.len - 1 do
    if t.op.(i) < 0 || t.op.(i) mod every = 0 then begin
      incr written;
      Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i names.(t.name.(i)) t.start.(i) t.stop.(i)
        t.parent.(i) t.op.(i)
    end
  done;
  close_out oc;
  !written
