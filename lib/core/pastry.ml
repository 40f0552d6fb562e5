open Canon_idspace
open Canon_overlay

let digit_bits = 4

let digits = Id.bits / digit_bits

(* Digit [l] (0 = most significant) of an identifier. *)
let digit id l = (id lsr (Id.bits - ((l + 1) * digit_bits))) land ((1 lsl digit_bits) - 1)

(* Routing cell (l, d) of [id], slot [l * 2^b + d]: a uniform random
   member of [ring] sharing the first [l] digits of [id] and carrying
   digit [d] at position [l] -- a single aligned range of length
   2^(bits - (l+1)*b). The node's own digit names no cell. *)
let random_in_cell rng ring id slot =
  let l = slot lsr digit_bits and d = slot land ((1 lsl digit_bits) - 1) in
  if d = digit id l then None
  else begin
    let suffix_bits = Id.bits - ((l + 1) * digit_bits) in
    let prefix = Id.prefix id (l * digit_bits) in
    let base = ((prefix lsl digit_bits) lor d) lsl suffix_bits in
    Ring.random_in_arc rng ring ~start:base ~len:(1 lsl suffix_bits)
  end

let row rng rings node =
  let id = (Rings.population rings).Population.ids.(node) in
  Canonical.slot_row rings node ~slots:(digits lsl digit_bits) (fun ring slot ->
      random_in_cell rng ring id slot)

let build rng pop = Canonical.flat pop (row rng)

let build_canonical rng rings = Canonical.hierarchical rings (row rng)
