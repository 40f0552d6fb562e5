open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

let long_links_per_node n = if n <= 1 then 0 else Id.log2_floor n

let harmonic_distance rng ~n =
  if n < 2 then invalid_arg "Symphony.harmonic_distance: need n >= 2";
  (* Inverse-CDF sampling: x = n^(u-1) has density 1/(x ln n) on [1/n, 1). *)
  let u = Rng.float rng in
  let x = Float.of_int n ** (u -. 1.0) in
  let d = int_of_float (x *. Float.of_int Id.space) in
  max 1 (min (Id.space - 1) d)

(* Symphony's rule in one ring: [floor(log2 size)] harmonic long links
   from identifier [id], keeping only targets at clockwise distance
   below [cap]. Failed draws (self, duplicate, beyond cap) are redrawn
   a bounded number of times, as in Symphony's own construction. A draw
   of [d >= cap] fails without a search: its target lies at distance
   [d] or more, or is the node itself. *)
let draw_long_links rng ~ids ring id ~cap buf ~from len =
  let n = Ring.size ring in
  let wanted = long_links_per_node n in
  let len = ref len and added = ref 0 and attempts = ref 0 in
  while !added < wanted && !attempts < 16 * wanted do
    incr attempts;
    let d = harmonic_distance rng ~n in
    if d < cap then begin
      let target = Ring.first_at_or_after ring (Id.add id d) in
      let dist = Id.distance id ids.(target) in
      if dist > 0 && dist < cap then begin
        let grown = Canonical.add buf ~from !len target in
        if grown > !len then begin
          len := grown;
          incr added
        end
      end
    end
  done;
  !len

let row rng rings =
  Canonical.successor_row rings (draw_long_links rng ~ids:(Rings.population rings).Population.ids)

let build rng pop = Canonical.flat pop (row rng)

let build_canonical rng rings = Canonical.hierarchical rings (row rng)
