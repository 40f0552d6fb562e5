(** Can-Can — the Canonical version of the logarithmic-degree CAN
    (paper §3.4): "traditional CAN edges are constructed at the lowest
    level of the hierarchy, and a node creates a link at a higher level
    only if it is a valid CAN edge and is shorter than the shortest link
    at the lower level". Realised as the deterministic-choice variant of
    the Canon XOR merge, {!Canonical.slot_row}; see {!Xor_dht}. *)

open Canon_overlay

val build : Rings.t -> Overlay.t
(** Deterministic. *)
