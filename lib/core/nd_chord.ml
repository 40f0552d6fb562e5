open Canon_idspace
open Canon_overlay

(* ND-Chord's rule in one ring: for each [k] with [2^k < cap], a uniform
   random member at clockwise distance in [2^k, min(2^(k+1), cap)) of
   [id], when that arc is non-empty. *)
let add_bucket_links rng ring id ~cap buf ~from len =
  let len = ref len and k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    let lo = 1 lsl !k in
    (match Ring.random_in_arc rng ring ~start:(Id.add id lo) ~len:(min lo (cap - lo)) with
    | Some v -> len := Canonical.add buf ~from !len v
    | None -> ());
    incr k
  done;
  !len

let row rng rings = Canonical.successor_row rings (add_bucket_links rng)

let build rng pop = Canonical.flat pop (row rng)

let build_canonical rng rings = Canonical.hierarchical rings (row rng)
