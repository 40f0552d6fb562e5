(** Nondeterministic Crescendo — the Canonical version of
    nondeterministic Chord (paper §3.2).

    Leaf rings use the nondeterministic Chord rule; at each merge a node
    may exercise its nondeterministic choice {e only among nodes closer
    than the closest node of its own ring} — the paper's example: with
    own-ring closest at distance 12 and bucket [8, 16), the choice is
    restricted to nodes at distances [8, 12). A successor link is kept
    at every level so greedy clockwise routing stays live.

    Built by {!Canonical.successor_row} with ND-Chord's rule: with a
    one-level hierarchy, ND-Crescendo is exactly ND-Chord. *)

open Canon_overlay

val build : Canon_rng.Rng.t -> Rings.t -> Overlay.t
