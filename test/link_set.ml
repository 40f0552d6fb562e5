(* The per-node link accumulator the library's constructions used before
   each level of Canon's merge was written into an int buffer, kept for
   the reference constructions in [prop.ml], which stay as they were:
   link targets in insertion order, with self-links and repeats dropped
   (through a hash set). *)

type t = {
  self : int;
  seen : (int, unit) Hashtbl.t;
  mutable targets : int list; (* reversed insertion order *)
  mutable count : int;
}

let create ~self = { self; seen = Hashtbl.create 24; targets = []; count = 0 }

let mem t target = Hashtbl.mem t.seen target

let add t target =
  if target <> t.self && not (mem t target) then begin
    Hashtbl.add t.seen target ();
    t.targets <- target :: t.targets;
    t.count <- t.count + 1
  end

let to_array t =
  let out = Array.make t.count t.self in
  let rec fill i = function
    | [] -> ()
    | x :: rest ->
        out.(i) <- x;
        fill (i - 1) rest
  in
  fill (t.count - 1) t.targets;
  out
