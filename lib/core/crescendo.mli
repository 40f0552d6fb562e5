(** Crescendo — the Canonical version of Chord (paper §2), the paper's
    primary contribution.

    Every node first builds ordinary Chord links inside its lowest-level
    (leaf) domain ring. Sibling rings are then merged bottom-up: during
    the merge producing the ring of domain [D], a node [m] adds a link
    to a node [m'] of a sibling ring iff

    - (a) [m'] is the closest node at least distance [2{^k}] away for
      some [k], applied over the union of the merged rings, and
    - (b) [m'] is strictly closer to [m] than every node of [m]'s own
      (pre-merge) ring.

    Consequently a node links to its successor in the ring at {e every}
    level of its domain chain, which is what makes greedy clockwise
    routing hierarchical: routes never leave the lowest domain
    containing source and destination (intra-domain locality), and all
    routes from a domain to an outside target exit through the target's
    closest predecessor in the domain (inter-domain convergence).

    With a one-level hierarchy, Crescendo is exactly Chord. *)

open Canon_overlay

val build : Rings.t -> Overlay.t
(** Deterministic given the rings: {!Overlay.create} over {!rows}, so
    it sorts none of them. Domains with no nodes contribute nothing, and
    a node in no ring gets no links. *)

val rows : Rings.t -> int array array
(** [rows rings] is {!links_of_node} of every node in the rings (empty
    for a node in none): the rows of {!build}, and the initial links of
    the dynamic-maintenance simulator. {!Canonical.ring_row} with a
    {!Chord.sweep} per ring as the rule: amortised O([Id.bits]) cursor
    steps per member and no search; each member's cap is its successor
    gap in its child ring, read at its rank there. No allocation per
    node but its row. *)

val links_of_node : Rings.t -> int -> int array
(** The row of a single node (used by dynamic maintenance to compute
    the links a joining node must establish): {!Canonical.ring_row}
    with {!Chord.add_fingers} as the rule. The links are distinct
    and in clockwise order, strictly ascending by clockwise distance
    from the node: condition (b) makes every level's targets closer
    than all targets of the levels below it, so the row is the levels
    root first, each by increasing distance. Equal link sets are
    therefore equal arrays. *)
