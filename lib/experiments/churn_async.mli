(** Churn × async: lookup success and wall-clock {e during} live churn.

    The tentpole measurement for the merged event queue: membership
    events prepared by {!Canon_sim.Churn.prepare}, lookup launches and
    every in-flight RPC hop ({!Canon_net.Net.launch}/[handle]) share one
    {!Canon_sim.Event_queue}, so a join or leave lands {e between} a
    hop's send and its delivery/timeout and routing must recover against
    the membership of that moment (retry → reroute → re-anchor over the
    {!Canon_net.Live_view}).

    Three phases, each Chord (flat live fingers) vs Crescendo
    (maintained hierarchical links) over the same membership trajectory
    and probe pairs:
    - {e quiescent}: zero churn events — the two-phase baseline;
    - {e burst}: a sustained Poisson churn stream overlapping the lookup
      window — success drops (a destination can depart mid-lookup) and
      the wall-clock tail inflates (mid-flight departures cost timeout
      ladders);
    - {e burst-intra}: churn restricted to nodes {e outside} the largest
      depth-1 domain, probes between that domain's members — the paper's
      §2.2 containment claim carried to live churn: Crescendo's
      intra-domain routes never touch the churning remainder.

    Success = the lookup terminated at the probed destination (its key
    is the destination's own id). p50/p99 are wall-clock ms over
    successful lookups. Telemetry: [churn_async.*], plus the [sim.*]
    (membership) and [net.*] (RPC) counters accumulated on the shared
    sim-time axis. Deterministic: the seed fixes the topology, the
    membership trajectory and every probe pair. *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t

val run_with :
  ?churn_rate:float ->
  ?lookup_rate:float ->
  ?events:int ->
  ?n:int ->
  ?lookups:int ->
  scale:Common.scale ->
  seed:int ->
  unit ->
  Canon_stats.Table.t
(** [churn_rate] is membership events per simulated second (mean
    interarrival = 1000/rate ms; default 100), [lookup_rate] lookup
    launches per simulated second (default 200); [events], [n] and
    [lookups] override the scale defaults (400/4096/800 at paper scale,
    120/1024/200 at quick). Raises [Invalid_argument] on non-finite or
    non-positive rates, [events < 0], [lookups < 1] or [n < 16]. *)
