(** Dynamic maintenance of Crescendo (paper §2.3).

    Simulates the join/leave protocol at message granularity and keeps
    the overlay's link state {e exactly} consistent: after any sequence
    of joins and leaves, every live node's links equal what the static
    Crescendo construction would build over the surviving population,
    in its clockwise order (this equivalence is asserted by the test
    suite after every event).

    A join routes a query for the new node's own identifier through a
    bootstrap node — greedy routing visits the new identifier's
    predecessor at every level — then establishes the new node's links
    and notifies the nodes whose links must now point at it (eager
    notification). A leave notifies in-neighbours and the per-level
    predecessors, whose distance caps may have widened.

    {b Row order.} Every live node's links are kept strictly ascending
    by clockwise distance from it, the order of
    {!Canon_overlay.Overlay.links} and the one
    {!Canon_core.Router.step_clockwise} reads: condition (b) makes each
    level's links a distance band closer than every band below it, so
    the row is the bands root first. This holds after every event,
    crash window included.

    {b What an event touches, and at what host cost.} Because each
    level's links are the Chord fingers of that level's ring within a
    distance band, an event patches rows in one pass instead of
    recomputing them:
    - a join of [m] finds, per ring of [m]'s chain, the members that may
      now finger [m] among [m]'s successor [T] there and [T]'s in-link
      holders (a node that now fingers [m] pointed that finger at [T]
      before), keeps those whose LCA with [m] is that ring's domain and
      for which [m] is within their band, and patches them: [m] goes in
      at its distance, the finger just after [m] may go, and [m]'s new
      ring predecessor drops its shallower links beyond [m];
    - a leave of [m] patches each node that linked to [m] (the link
      goes, and [m]'s successor may come in at its own distance), and
      each of [m]'s ring predecessors, at most one per level, by band:
      where [p] preceded [m], its successor gap widens, and so does the
      cap of the level above, which gains its ring's fingers of [p] in
      the widened window ({!Canon_core.Chord.add_fingers_between}); the
      gains are merged into [p]'s row by distance.
    So the host work of an event is O(levels · log n) searches plus
    O(links) per node whose links change — the [notify_messages] it
    reports — plus one memmove per ring of the chain
    ({!Canon_overlay.Ring.insert}). No row is recomputed whole except
    the joiner's own and, in {!repair}, the stale ones.

    Costs are reported per operation:
    - [routing_messages]: hops of the bootstrap lookup;
    - [link_messages]: links the new node establishes (or, on leave,
      links torn down);
    - [notify_messages]: existing nodes whose link sets changed.

    The paper's claim — O(log n) messages per join — is checked
    experimentally by the maintenance benchmark.

    {b Crash window.} Between {!crash} and {!repair}, joins and leaves
    keep every node that holds no stale link exactly equal to the static
    construction. The {e stale} nodes ({!stale_nodes}) are exactly those
    whose links a join or leave may not patch correctly; a patch never
    drops a link to a crashed node, so a node stays stale until
    {!repair} recomputes it. After {!repair} every live node is exact
    again. *)

open Canon_overlay

type t

type stats = {
  routing_messages : int;
  link_messages : int;
  notify_messages : int;
}

val total : stats -> int

val create : Population.t -> present:int array -> t
(** Starts with the listed nodes joined (their links computed directly)
    and everyone else absent. *)

val present : t -> int array
(** Currently live nodes, in decreasing node-index order. O(population
    size): use {!count} and {!is_present} for the common questions. *)

val count : t -> int
(** Number of live nodes, O(1). Equals [Array.length (present t)]. *)

val is_present : t -> int -> bool

val join : t -> int -> stats
(** Joins a population node. Raises [Invalid_argument] if already
    present or out of range, or if it crashed and a live node still
    links to it (run {!repair} first). *)

val leave : t -> int -> stats
(** Graceful departure. Raises [Invalid_argument] if absent. *)

val crash : t -> int -> unit
(** Abrupt failure: the node vanishes without running the departure
    protocol, so other nodes keep {e stale links} pointing at it until
    {!repair} runs. Lookups in the window must route around the corpse
    ({!Canon_core.Router.greedy_clockwise_avoiding}), falling back on
    leaf-set entries as §2.3 intends. *)

val stale_nodes : t -> int array
(** Live nodes currently holding at least one link to a crashed node,
    in increasing node order. A test seam: the [crash-recovery] "crash +
    repair equivalence" and "events in crash window, then repair" tests
    and [prop.maintenance]'s "crash window: non-stale nodes exact,
    repair heals" read it. *)

val repair : t -> stats
(** Failure detection and repair: every live node holding a stale link
    re-establishes its link set against the surviving rings (in the
    real protocol it consults its per-level leaf sets to find the new
    successors; here the cost is counted as one notification per
    repaired node plus its re-established links). Afterwards the link
    state again equals the static construction — asserted in tests. *)

val links : t -> int -> int array
(** Current links of a live node, strictly ascending by clockwise
    distance from it. *)

val overlay : t -> Overlay.t
(** Immutable snapshot: absent nodes have no links. The rows are
    shared, not copied (a patch makes a new row rather than writing one
    in place), and {!Canon_overlay.Overlay.create} sorts none of them. *)

val rings : t -> Rings.t
(** The live per-domain rings (mutated by joins/leaves — do not hold
    across operations). *)
