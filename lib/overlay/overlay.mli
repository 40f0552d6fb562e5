(** A constructed overlay network: a population plus the outgoing links
    each construction decided on.

    Links are directed (the paper counts out-degree only). The adjacency
    is immutable once built; constructions hand it over through
    {!create}, which stores each node's links once, sorted clockwise. *)

type t

val create : Population.t -> links:int array array -> t
(** [create pop ~links] with [links.(node)] the array of link targets of
    [node]. The overlay takes ownership of [links]: the caller must not
    use the arrays again, since rows out of clockwise order are sorted
    in place.

    Raises [Invalid_argument] on a size mismatch, and otherwise on the
    first offending link in node order, then link order:
    ["Overlay.create: self-link"], ["Overlay.create: target out of
    range"], ["Overlay.create: duplicate link"] or ["Overlay.create:
    linked nodes share an id"] (a link at clockwise distance 0 from its
    holder, or two links of one row at one distance). In a row given out
    of clockwise order, two links at one distance need not be
    neighbours; they raise once the rest of the row has passed.

    The check that finds these also takes one {!Canon_idspace.Id.distance}
    per link, and a row whose distances do not ascend is sorted by
    clockwise distance from its holder. A construction that emits every
    row in that order (all of Chord's, Crescendo's and Hybrid's do) pays
    for no sort. {!Population} ids are distinct, so no construction
    over one raises the last error. *)

val population : t -> Population.t

val size : t -> int

val id : t -> int -> Canon_idspace.Id.t

val links : t -> int -> int array
(** Outgoing links of a node (not copied — callers must not mutate), by
    strictly increasing clockwise distance from the node. The
    synchronous clockwise step ({!Canon_core.Router.step_clockwise})
    finds its hop by one binary search over them. *)

val degrees : t -> int array
(** Out-degree of every node. *)

val mean_degree : t -> float

val has_link : t -> int -> int -> bool
(** A test seam: the [chord] "successor links", [crescendo] "successor
    at every level" and [proximity] "chord-prox clique" tests read it. *)

val iter_links : t -> (int -> int -> unit) -> unit
(** [iter_links t f] calls [f src dst] for every directed link. *)
