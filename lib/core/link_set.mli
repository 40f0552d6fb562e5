(** Per-node link accumulator for the constructions whose rules can
    select a target twice ({!Canonical.ring_row}'s rules and Chord
    (Prox.)): collects link targets, silently dropping self-links and
    duplicates. (Chord and Crescendo need none: their finger scan skips
    repeated targets by construction. Nor does {!Canonical.slot_row}:
    its slots are disjoint.) *)

type t

val create : self:int -> t

val add : t -> int -> unit
(** Adds a target unless it is [self] or already present. *)

val mem : t -> int -> bool

val to_array : t -> int array
(** Targets in insertion order. *)
