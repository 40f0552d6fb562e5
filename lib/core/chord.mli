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
    ignored — Chord is flat. *)

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
    below [below]. The building block of {!Crescendo.links_of_node}. *)
