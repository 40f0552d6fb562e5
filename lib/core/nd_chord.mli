(** Nondeterministic Chord (CFS / Gummadi et al., paper §3.2) and its
    Canonical version, ND-Crescendo.

    Instead of the closest node at least [2{^k}] away, a node links to a
    {e uniformly random} node at clockwise distance in [[2{^k},
    2{^k+1})] for each [k], plus its successor. Routing properties are
    almost identical to Symphony.

    Both entry points apply this rule through {!Canonical.successor_row}.
    Above the leaf, the cap of condition (b) restricts each choice to
    the arc [[2{^k}, min(2{^k+1}, cap))], exactly as §3.2 prescribes. *)

open Canon_overlay

val build : Canon_rng.Rng.t -> Population.t -> Overlay.t
(** Flat ND-Chord; the hierarchy, if any, is ignored. *)

val build_canonical : Canon_rng.Rng.t -> Rings.t -> Overlay.t
(** ND-Crescendo: see {!Nd_crescendo}. *)
