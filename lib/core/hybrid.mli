(** Heterogeneous per-level routing structures (paper §3.5).

    Canon does not require the same structure at every level. The
    motivating case: nodes of a lowest-level domain share a LAN with
    cheap broadcast, so the leaf "ring" can simply be a complete graph
    ("there may be efficient broadcast primitives available on the LAN
    which may allow setting up a complete graph among the nodes"),
    while the merges above stay ordinary Crescendo — each node links
    into sibling rings only closer than its nearest LAN peer.

    Routing is unchanged greedy clockwise: within the leaf the clique
    reaches the right node in one hop; above it the Crescendo rings take
    over. Locality and convergence hold exactly as for Crescendo. *)

open Canon_overlay

val build : Rings.t -> Overlay.t
(** Clique leaf domains, Crescendo merges above: {!Canonical.ring_row}
    with the clique as the leaf's rule and {!Chord.add_fingers} above.
    Deterministic. Links are handed to {!Overlay.create} in its
    clockwise order (the merge levels root first, then the clique from
    the node's successor), so it sorts none. *)
