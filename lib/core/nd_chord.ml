open Canon_idspace
open Canon_overlay

(* ND-Chord's rule in one ring: for each [k] with [2^k < cap], a uniform
   random member at clockwise distance in [2^k, min(2^(k+1), cap)) of
   [id], when that arc is non-empty. *)
let add_bucket_links rng id ring ~cap acc =
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    let lo = 1 lsl !k in
    Option.iter (Link_set.add acc)
      (Ring.random_in_arc rng ring ~start:(Id.add id lo) ~len:(min lo (cap - lo)));
    incr k
  done

let row rng ~ids chain node =
  Canonical.ring_row chain ids.(node) ~self:node (add_bucket_links rng ids.(node))

let build rng pop = Canonical.flat pop (row rng ~ids:pop.Population.ids)

let build_canonical rng rings =
  Canonical.hierarchical rings (row rng ~ids:(Rings.population rings).Population.ids)
