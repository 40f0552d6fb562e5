open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

type choice =
  | Closest
  | Random of Rng.t

(* The k-th XOR bucket of [id] is the aligned identifier range
   [base, base + 2^k) where base flips bit k of [id] and clears the bits
   below it. *)
let bucket_base id k = (id lxor (1 lsl k)) land lnot ((1 lsl k) - 1)

let closest_in_bucket ring id k =
  (* Bit descent: narrow the aligned range towards the identifier whose
     low bits match [id]'s, i.e. the member minimizing [xor id]. *)
  let lo = ref (bucket_base id k) and len = ref (1 lsl k) in
  if Ring.arc_count ring ~start:!lo ~len:!len = 0 then None
  else begin
    while !len > 1 do
      let half = !len / 2 in
      (* First half has the (log2 half)-th bit clear; prefer the half
         matching [id]'s bit to minimize the XOR distance. *)
      let id_bit_set = id land half <> 0 in
      let preferred = if id_bit_set then !lo + half else !lo in
      if Ring.arc_count ring ~start:preferred ~len:half > 0 then lo := preferred
      else if id_bit_set then () (* stay in [lo, lo+half) *)
      else lo := !lo + half;
      len := half
    done;
    let rank = Ring.rank_at_or_after ring !lo in
    Some (Ring.node_at ring rank)
  end

let bucket_member choice ring id k =
  match choice with
  | Closest -> closest_in_bucket ring id k
  | Random rng -> Ring.random_in_arc rng ring ~start:(bucket_base id k) ~len:(1 lsl k)

(* One slot per bucket k = 0 .. Id.bits - 1. *)
let row choice rings node =
  let id = (Rings.population rings).Population.ids.(node) in
  Canonical.slot_row rings node ~slots:Id.bits (fun ring k -> bucket_member choice ring id k)

let build_flat choice pop = Canonical.flat pop (row choice)

let build_hierarchical choice rings = Canonical.hierarchical rings (row choice)
