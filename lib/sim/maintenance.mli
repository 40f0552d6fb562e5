(** Dynamic maintenance of Crescendo (paper §2.3).

    Simulates the join/leave protocol at message granularity and keeps
    the overlay's link state {e exactly} consistent: after any sequence
    of joins and leaves, every live node's links equal what the static
    Crescendo construction would build over the surviving population
    (this equivalence is asserted by the test suite).

    A join routes a query for the new node's own identifier through a
    bootstrap node — greedy routing visits the new identifier's
    predecessor at every level — then establishes the new node's links
    and notifies the nodes whose links must now point at it (eager
    notification). A leave notifies in-neighbours and the per-level
    predecessors, whose distance caps may have widened.

    Costs are reported per operation:
    - [routing_messages]: hops of the bootstrap lookup;
    - [link_messages]: links the new node establishes (or, on leave,
      links torn down);
    - [notify_messages]: existing nodes whose link sets changed.

    The paper's claim — O(log n) messages per join — is checked
    experimentally by the maintenance benchmark. *)

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
    present or out of range. *)

val leave : t -> int -> stats
(** Graceful departure. Raises [Invalid_argument] if absent. *)

val crash : t -> int -> unit
(** Abrupt failure: the node vanishes without running the departure
    protocol, so other nodes keep {e stale links} pointing at it until
    {!repair} runs. Lookups in the window must route around the corpse
    ({!Canon_core.Router.greedy_clockwise_avoiding}), falling back on
    leaf-set entries as §2.3 intends. *)

val stale_nodes : t -> int array
(** Live nodes currently holding at least one link to a crashed node. *)

val repair : t -> stats
(** Failure detection and repair: every live node holding a stale link
    re-establishes its link set against the surviving rings (in the
    real protocol it consults its per-level leaf sets to find the new
    successors; here the cost is counted as one notification per
    repaired node plus its re-established links). Afterwards the link
    state again equals the static construction — asserted in tests. *)

val links : t -> int -> int array
(** Current links of a live node. *)

val overlay : t -> Overlay.t
(** Immutable snapshot: absent nodes have no links. *)

val rings : t -> Rings.t
(** The live per-domain rings (mutated by joins/leaves — do not hold
    across operations). *)
