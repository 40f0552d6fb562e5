(** The message-level asynchronous lookup simulator.

    Where the synchronous engines in {!Canon_core.Router} teleport a
    message along its whole path in one call, [Net] turns every hop into
    an RPC on a virtual clock: the message takes real (transit-stub)
    latency to cross each link, can be dropped or sent to a crashed node
    per the {!Fault_plan}, and the sender recovers through the
    {!Rpc} policy — timeout, bounded retries with jittered exponential
    backoff — before giving up on a link. Recovery is layered exactly as
    the paper's §2.3 prescribes:

    + {e retry}: a timed-out hop is resent to the same target, with
      backoff, up to [max_retries] times;
    + {e reroute}: when the budget is exhausted the target is marked
      suspect and the sender re-runs the greedy rule avoiding suspects
      ({!Canon_core.Router.step_clockwise});
    + {e re-anchor}: when every useful link is suspect, the sender falls
      back to its per-level leaf sets ({!Canon_sim.Leaf_sets}) and
      forwards to the nearest non-suspect successor that makes clockwise
      progress — the "next leaf-set entry re-anchors the ring" move.

    Fidelity contract (pinned by the test suite): with a fault-free plan
    a lookup visits {e exactly} the nodes {!Canon_core.Router.greedy_clockwise}
    would visit, and its wall-clock time is the path's physical latency.
    Faults only ever add: retries, waits, detours.

    Simplifications, on purpose: forwarding is recursive (the node
    holding the message picks the next hop); per-hop acknowledgements
    are not simulated separately — a delivered hop silently cancels its
    sender's timeout — and a message slower than the timeout is treated
    as undelivered, so the sender recovers from a link that slow as
    from a crashed target. Suspicions are forgotten when the lookup that learned them
    ends: each lookup discovers failures afresh, modelling independent
    clients with no shared failure detector, the paper's no-repair
    setting.

    {b Hop cost.} A hop, on a frozen net or a live one, is one binary
    search over the holder's links ({!Canon_core.Router.step_clockwise}):
    the overlay, the maintenance simulator and the live view all keep
    every row sorted by clockwise distance, so nothing is built for it.

    Every lookup feeds the [net.*] telemetry counters and delivered-
    latency histogram, and emits a span to the ambient trace when one is
    installed. *)

open Canon_idspace
open Canon_overlay

type t

val create :
  ?policy:Rpc.policy ->
  ?plan:Fault_plan.t ->
  ?rings:Rings.t ->
  ?live:Live_view.t ->
  rng:Canon_rng.Rng.t ->
  node_latency:(int -> int -> float) ->
  Overlay.t ->
  t
(** A simulated network over [overlay]. [node_latency] is the physical
    latency oracle (e.g. {!Canon_topology.Latency.node_latency} composed
    with attachment points). [plan] defaults to fault-free; [policy] to
    {!Rpc.default}. [rings] enables leaf-set re-anchoring with 4
    successors per level (without [rings] a blocked lookup fails instead
    of re-anchoring). [live] switches the network to {e live
    membership} mode: hop selection, deviation
    detection and leaf-set fallbacks consult the {!Live_view} (mutated
    by churn between events) instead of the frozen [overlay], a hop
    whose target departed in flight is not delivered (the sender times
    out and routes around it), and leaf sets come from the view's rings,
    re-derived whenever its generation changes. With a [live] view whose
    membership never changes, behavior is identical to snapshot mode.
    Raises [Invalid_argument] on a plan/overlay size mismatch, a
    rings/live view over a different population, or an invalid
    policy. *)

val population : t -> Population.t
(** The population of the overlay the net routes over. *)

val plan : t -> Fault_plan.t
(** Live: mutating the returned plan affects subsequent lookups. *)

val lookup : t -> src:int -> key:Id.t -> Async_route.t
(** Routes one message from [src] toward [key]'s responsible node,
    simulating every hop. Raises [Invalid_argument] when [src] is
    crashed (or, in live mode, not live). Deterministic given the
    creation RNG's state. Implemented as {!launch} + {!handle} over one
    event queue the net keeps and empties for every lookup; with a
    fault-free plan the RNG is never consumed, so results are
    independent of other lookups' scheduling. *)

(** {2 Event-driven interface}

    [lookup] owns its clock: it drains the net's own queue until the
    route resolves. The functions below expose the same machinery with the
    {e caller} owning the queue, so lookups can be interleaved with
    other timestamped work — most importantly {!Canon_sim.Churn}
    membership events — on one shared {!Event_queue}/sim-time axis. The
    caller wraps {!event} into its own payload type, pushes via the
    [push] callback given to {!launch}/{!handle}, and calls {!handle}
    when a net event pops. Suspicions learned by a lookup are visible
    to others only while it is in flight (they are cleared when it
    finishes). *)

type event
(** An in-flight message occurrence (send, delivery or timeout) of some
    launched lookup. Opaque: obtained only from the [push] callback. *)

type pending
(** A launched lookup. Resolves to a result once enough of its events
    have been handled. *)

val launch :
  ?on_done:(Async_route.t -> unit) ->
  t ->
  now:float ->
  push:(time:float -> event -> unit) ->
  src:int ->
  key:Id.t ->
  pending
(** Start a lookup at sim time [now], scheduling its first hop through
    [push] (timestamps are absolute). [on_done] fires exactly once when
    the lookup resolves, from inside the {!handle} call (or this one, if
    [src] is already responsible for [key]) that resolves it. Raises
    like {!lookup}. *)

val handle : t -> now:float -> push:(time:float -> event -> unit) -> event -> unit
(** Process one event at its timestamp [now] (caller passes the time the
    event popped at). Events of resolved lookups are ignored. An event
    popping after its lookup's deadline resolves the lookup as [Failed
    Deadline] with wall clamped to the deadline. A frozen net (no
    [live] view) schedules no timeout for a message it delivers unless
    the timeout would pop past the deadline, where it is the event that
    fails the lookup; a live net keeps every timeout, since a target
    may depart while the message is in flight. *)

val result : pending -> Async_route.t option
(** [None] while the lookup is still in flight. *)

val abandon : t -> pending -> now:float -> Async_route.t
(** Resolve an unresolved lookup as [Failed No_candidate] now (e.g. the
    shared queue drained with the lookup still waiting); returns the
    existing result if it already resolved. *)

val suspected_nodes : t -> int array
(** Nodes the network currently believes dead (retry budgets exhausted
    against them by lookups still in flight), in increasing order. A
    test seam: the [net] "suspicions last one lookup" test and
    [prop.event-loop]'s "Net = always-timer reference loop" read it. *)
