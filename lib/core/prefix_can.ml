module Rng = Canon_rng.Rng

(* Bisection numbers the leaves left to right, so padded to [depth]
   bits node [v] owns the keys [starts.(v), starts.(v + 1)): a range of
   a power-of-two width aligned to it, and [starts] ascends from 0 to
   [2^depth]. *)
type t = { depth : int; starts : int array }

let size t = Array.length t.starts - 1

let depth t = t.depth

let width t node = t.starts.(node + 1) - t.starts.(node)

let prefix_of t node =
  let rec log2 w = if w = 1 then 0 else 1 + log2 (w lsr 1) in
  let pad = log2 (width t node) in
  (t.starts.(node) lsr pad, t.depth - pad)

(* The last node starting at or below [key]. *)
let owner t key =
  let lo = ref 0 and hi = ref (size t) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if t.starts.(mid) <= key then lo := mid else hi := mid
  done;
  !lo

let build rng ~n =
  if n < 1 then invalid_arg "Prefix_can.build: need at least one node";
  (* Balanced bisection: split the population in half (random side gets
     the odd element) until singletons; the path is the identifier, and
     the leaves come out left to right. *)
  let lengths = Array.make n 0 and next = ref 0 in
  let rec split count len =
    if count = 1 then begin
      lengths.(!next) <- len;
      incr next
    end
    else begin
      let left = if count mod 2 = 1 && Rng.bool rng then (count / 2) + 1 else count / 2 in
      split left (len + 1);
      split (count - left) (len + 1)
    end
  in
  split n 0;
  let depth = Array.fold_left max 0 lengths in
  let starts = Array.make (n + 1) 0 in
  Array.iteri (fun v len -> starts.(v + 1) <- starts.(v) + (1 lsl (depth - len))) lengths;
  { depth; starts }

(* For each bit of [node]'s prefix, the first and last owners of the
   prefix with that bit flipped: the one node above it, or every node
   below it. The ranges are disjoint and never hold [node]. *)
let flipped_ranges t node =
  let first = t.starts.(node) and w = width t node in
  let rec go bit acc =
    if bit >= 1 lsl t.depth then acc
    else
      let lo = first lxor bit in
      go (bit lsl 1) ((owner t lo, owner t (lo + w - 1)) :: acc)
  in
  go w []

let neighbors t node =
  Array.concat
    (List.map
       (fun (first, last) -> Array.init (last - first + 1) (fun i -> first + i))
       (flipped_ranges t node))

let mean_degree t =
  let total = ref 0 in
  for node = 0 to size t - 1 do
    List.iter (fun (first, last) -> total := !total + last - first + 1) (flipped_ranges t node)
  done;
  Float.of_int !total /. Float.of_int (size t)

let route t ~src ~key =
  if key < 0 || key >= t.starts.(size t) then invalid_arg "Prefix_can.route: key out of range";
  let step u =
    (* [u]'s virtual node nearest the key: its identifier padded with
       the key's tail. Flipping the highest bit where they differ is a
       hypercube edge by construction. *)
    let w = width t u in
    let diff = (t.starts.(u) lor (key land (w - 1))) lxor key in
    if diff = 0 then Router.Arrived
    else begin
      let rec top bit = if diff lsr 1 >= bit then top (bit lsl 1) else bit in
      Router.Forward (owner t (key lxor diff lxor top 1))
    end
  in
  Router.route ~kind:"prefix_can.route"
    ~level:(fun _ _ -> 0)
    ~n:(size t) ~src
    ~key:(key lsl (Canon_idspace.Id.bits - t.depth))
    step
