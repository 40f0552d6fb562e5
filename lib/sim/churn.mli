(** Churn driver: a Poisson stream of joins, leaves and probe lookups
    against the maintained Crescendo overlay.

    Every probe routes between two live nodes over the {e maintained}
    link state and checks it arrives exactly; every join/leave reports
    its message cost. This exercises the §2.3 protocol end to end and
    backs the maintenance benchmark.

    The stream can also be consumed {e asynchronously}: {!prepare}
    returns the timestamped membership events without executing them, so
    a caller can merge them with other event sources (e.g.
    [Canon_net.Net] RPC hops) on one shared {!Event_queue} and {!apply}
    each event when its timestamp pops — joins and leaves then
    interleave with in-flight messages on a single sim-time axis. *)

type config = {
  initial_nodes : int;  (** nodes joined before the clock starts *)
  events : int;  (** total join/leave events to run *)
  join_fraction : float;  (** probability an event is a join *)
  probes_per_event : int;  (** routing probes after each event *)
  mean_interarrival : float;  (** seconds between events (Poisson) *)
}

type report = {
  joins : int;
  leaves : int;
  probes : int;
  failed_probes : int;
  join_message_mean : float;
  leave_message_mean : float;
  final_population : int;
  sim_time : float;
}

type event =
  | Arrival  (** the next waiting node runs the §2.3 join protocol *)
  | Departure  (** a random live node leaves gracefully *)
      (** A scheduled membership event. The affected node is decided at
          {!apply} time against the membership of that moment, not at
          scheduling time. *)

type hook =
  | Init of int array  (** the shuffled initial membership, before the clock starts *)
  | Join of int  (** a node just completed the §2.3 join protocol *)
  | Leave of int  (** a node just completed a graceful leave *)
      (** Membership events reported to [?on_event] so layers above the
          overlay (e.g. a [Canon_net] live-membership view) can track
          the churned membership. Handlers run after the maintenance
          protocol settles and must not consume the churn RNG. *)

val run :
  ?on_event:(hook -> unit) ->
  Canon_rng.Rng.t ->
  Canon_overlay.Population.t ->
  config ->
  report
(** The population provides the universe of potential nodes (ids and
    hierarchy positions); churn picks which are live. Requires
    [initial_nodes <= Population.size] and enough headroom for joins.
    [on_event] observes membership changes ({!hook}). Implemented as a
    thin wrapper over {!prepare}/{!apply} with a private event queue;
    the RNG stream (and therefore every report field) is byte-identical
    to the historical synchronous driver. *)

type driver
(** Execution state for an asynchronous churn run: the maintained
    overlay, the waiting room, message-cost counters and the RNG used
    for departure picks. Created by {!prepare}, advanced by {!apply}. *)

val prepare :
  ?on_event:(hook -> unit) ->
  ?can_churn:(int -> bool) ->
  Canon_rng.Rng.t ->
  Canon_overlay.Population.t ->
  config ->
  driver * (float * event) list
(** Build the initial membership (emitting [Init]) and pre-draw the
    event schedule: [config.events] pairs of [(time, kind)] with times
    drawn i.i.d. exponential([mean_interarrival]) from time 0 — a churn
    {e burst} whose intensity decays from the start, exactly the stream
    [run] executes. Callers may also prefix-sum the times to reshape the
    burst into a sustained Poisson process; {!apply} never looks at the
    timestamps. [can_churn] restricts which nodes may join or be picked
    to leave (default: all) — initial membership is not filtered, so a
    protected domain keeps its members. It must be a fixed predicate of
    the node: it is read once per node, when the waiting room is built
    and for the initial members, not at every departure. Raises
    [Invalid_argument] if [initial_nodes] exceeds the population. *)

val apply : driver -> event -> unit
(** Execute one membership event against the current membership: an
    [Arrival] joins the next eligible waiting node (no-op when the
    waiting room is empty), a [Departure] picks an eligible live node
    uniformly — consuming one RNG draw — and leaves it (no-op when the
    live population is at the quorum floor or no node is eligible).
    The draw is an order statistic over the eligible nodes, O(log n):
    the node [Canon_rng.Rng.pick] would choose from them listed in
    decreasing order. Besides the protocol's own work an event costs
    O(log n). Calls [on_event] after the maintenance protocol
    settles. *)

val maintenance : driver -> Maintenance.t

val joins : driver -> int

val leaves : driver -> int

val join_message_mean : driver -> float

val leave_message_mean : driver -> float
