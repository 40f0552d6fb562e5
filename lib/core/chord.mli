(** Flat Chord (Stoica et al., SIGCOMM 2001) — the paper's primary
    baseline.

    Each node with identifier [m] links, for every [0 <= k < N], to the
    closest node at least clockwise distance [2{^k}] away. The [k = 0]
    link is the node's successor, so greedy clockwise routing is always
    live. Expected out-degree is at most [log2(n-1) + 1] (paper
    Theorem 1) and expected route length at most [log2(n-1)/2 + 1/2]
    (Theorem 4). *)

open Canon_overlay

val build : Population.t -> Overlay.t
(** Deterministic given the population: the hierarchy, if any, is
    ignored — Chord is flat. Each row is {!links_of_id} on the global
    ring. Cost: one sort of the identifiers, then one {!sweep} of the
    ring in rank order, amortised O([Id.bits]) cursor steps per node
    and no search. Raises [Invalid_argument] if two nodes share an
    identifier. *)

val links_of_id :
  Ring.t -> Canon_idspace.Id.t -> self:int -> int array
(** The Chord link rule applied from one identifier against an
    arbitrary non-empty ring (also used by the maintenance protocol
    when a node recomputes its fingers). [self] need not be a member
    and is excluded from the result. The links are distinct and in
    canonical order, increasing clockwise distance from the
    identifier: equal link sets are equal arrays. O(d log n) for d
    distinct fingers, with no hashing. Raises [Invalid_argument] on an
    empty ring. *)

val add_fingers :
  Ring.t -> Canon_idspace.Id.t -> self:int -> below:int -> int array -> int -> int
(** [add_fingers ring id ~self ~below buf len] writes the distinct
    {!links_of_id} targets at clockwise distance [< below] into [buf]
    from index [len], nearest first, and returns the new length. [buf]
    needs room for one target per distance band [\[2{^k}, 2{^k+1})]
    below [below]. The building block of {!Crescendo.links_of_node}.
    Each distinct target costs one binary search. *)

val add_fingers_between :
  Ring.t -> Canon_idspace.Id.t -> self:int -> from:int -> below:int -> int array -> int -> int
(** [add_fingers_between ring id ~self ~from ~below buf len] is
    {!add_fingers} restricted to the targets at clockwise distance in
    [\[from, below)], nearest first: the fingers a Crescendo node gains
    when a departure widens one level's distance cap from [from] to
    [below]. The scan starts at the highest [2{^k} <= from], since any
    lower [k] whose target is at least [from] away lands on that same
    target, so it costs one binary search per target in the window plus
    at most one. Raises [Invalid_argument] if [from < 1] or the ring is
    empty. *)

type sweep
(** Forward cursors over one ring: the finger rule of {!add_fingers}
    for every member of a ring, met in rank order. *)

val sweep : Ring.t -> sweep
(** Fresh cursors at the start of the ring, one per [k] with [2{^k}]
    above the ring's smallest gap between neighbours (below it every
    target is the successor): about [2 log2 size] of them. O(size). *)

val sweep_fingers : sweep -> rank:int -> below:int -> int array -> int -> int
(** [sweep_fingers s ~rank ~below buf len] is
    [add_fingers ring id ~self ~below buf len] for the member [self] at
    [rank], with identifier [id]; the targets are found by walking the
    cursors forward instead of by search. Successive calls on one sweep
    may not decrease [rank]: over a whole ring the cursors then take
    amortised O([Id.bits]) steps per member. Raises [Invalid_argument]
    unless [rank < Ring.size ring] and [rank] is at least that of the
    previous call (or 0). *)
