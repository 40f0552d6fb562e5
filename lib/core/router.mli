(** Routing engines.

    All routing in the paper is greedy and memoryless: a node inspects
    only its own links (plus, with lookahead, its neighbours' links) and
    forwards. Every engine is one {e step} — what the node holding the
    message does next — walked hop by hop by one driver, {!route}.
    There is one step per metric:

    - clockwise ({!step_clockwise}, over any row sorted clockwise):
      Chord, Crescendo, Symphony, Cacophony, nondeterministic
      Chord/Crescendo, with or without dead nodes, frozen or live
      ({!greedy_clockwise}, {!greedy_clockwise_generic},
      {!greedy_clockwise_avoiding}, and [canon_net]'s message-level
      lookups). Take the link that gets closest to the key clockwise
      without overshooting it; the walk ends at the key's closest
      predecessor among the reachable structure. Crescendo's
      hierarchical behaviour (§2.2) — intra-domain locality,
      inter-domain convergence — is an emergent property of this rule;
      no extra mechanism exists.
    - clockwise with lookahead ({!greedy_clockwise_lookahead}):
      Symphony/Cacophony's 1-lookahead variant (§3.1) that examines
      neighbours' neighbours and moves to the first hop of the best
      2-hop pair.
    - XOR ({!greedy_xor}): Kademlia/Kandy/CAN/Can-Can bit-fixing: each
      hop must strictly decrease the XOR distance to the key; the walk
      ends at a local minimum (the key's owner when the adjacency is a
      valid hypercube structure).

    {2 Routing with a custom step}

    A system with its own forwarding rule ([Proximity]'s group routing,
    [Skipnet]'s name and numeric routing, [Prefix_can]'s bit fixing)
    writes a function from the current node to a {!step_outcome} —
    [Forward v], [Arrived] or [Blocked] — and passes it to {!route},
    which owns the path, the hop budget, the {!Stuck} exception and the
    span. Every engine here is such a step over the hop loop behind
    {!route}: it is the only hop loop.

    {2 Tracing}

    No engine takes a trace: each walk reads the ambient trace
    ({!Canon_telemetry.Trace.ambient}) once, before its first step.
    When none is installed — the default, and the benchmark
    configuration — the walk builds no span; when one is, one
    {!Canon_telemetry.Span} is offered to it per walk (subject to its
    sampling), carrying the walk's kind, the full visited path, the
    hierarchy level of each link used, and cumulative physical latency
    when the trace holds a latency oracle. The span is recorded in one
    place: [Arrived] for a finished route, [Stuck] with the partial path
    before the hop-budget exception propagates, and [Stranded] for a
    walk that ends [Blocked]. Only {!greedy_clockwise_avoiding} turns a
    blocked walk into a result ([None]); {!route} raises {!Stuck} after
    the [Stranded] span, and of its callers only a malformed structure
    blocks. *)

open Canon_idspace
open Canon_overlay

exception
  Stuck of {
    at : int;
    key : Id.t;
    hops : int;
    path : int array;  (** nodes visited so far, source first, [at] last *)
  }
(** Raised when a route exceeds the hop budget, or when a step of a
    route that must arrive answers [Blocked] — always a construction
    bug, never expected on a well-formed overlay. The partial path
    makes the broken route dumpable (and traceable) instead of lost. *)

val greedy_clockwise : Overlay.t -> src:int -> key:Id.t -> Route.t
(** Route from [src] toward [key]; the path ends at the first node
    having no link that moves clockwise-closer to [key] without passing
    it. On any overlay whose every node links to its global successor,
    that final node is the global predecessor of [key]. *)

val greedy_clockwise_generic :
  level:(int -> int -> int) ->
  n:int ->
  ids:Id.t array ->
  links:(int -> int array) ->
  src:int ->
  key:Id.t ->
  Route.t
(** The same engine over any adjacency (used by the dynamic-maintenance
    simulator, whose link state is mutable): [ids] are the nodes'
    identifiers, all distinct, and each row [links u] must be sorted as
    {!step_clockwise} requires — strictly ascending by clockwise
    distance from [u], as {!Canon_overlay.Overlay.links},
    [Maintenance.links] and [Chord.links_of_id] are. [n] bounds the hop
    budget. Traced spans use [level] for per-hop link levels
    ({!Canon_overlay.Population.link_level} of the nodes' population). *)

val greedy_clockwise_lookahead : Overlay.t -> src:int -> key:Id.t -> Route.t
(** Same termination behaviour as {!greedy_clockwise} but each step
    picks the neighbour whose own best next step lands closest to the
    key (Symphony's "greedy routing with a lookahead"). *)

val greedy_xor : Overlay.t -> src:int -> key:Id.t -> Route.t
(** Route by strictly decreasing XOR distance; ends where no link
    improves. *)

val greedy_clockwise_avoiding :
  Overlay.t -> dead:(int -> bool) -> src:int -> key:Id.t -> Route.t option
(** Greedy clockwise routing that never forwards to a node for which
    [dead] is true (crashed, unrepaired). Returns [None] when the
    message strands at a node whose every useful link is dead — the
    quantity the fault-isolation experiment measures. [src] must be
    alive. *)

type step_outcome =
  | Forward of int
      (** move on to this neighbour — for the clockwise step, the best
          live no-overshoot link toward the key *)
  | Arrived
      (** the walk ends here with a route — for the clockwise step, no
          node in [(at, key]] is linked at all: [at] is the key's
          predecessor among the reachable structure *)
  | Blocked
      (** the walk ends here with no route — for the clockwise step,
          every useful link is dead: a live owner may exist but [at]
          cannot see it (the stranded condition) *)

type step = {
  outcome : step_outcome;  (** what [at] does, avoiding [dead] links *)
  fault_free : int option;
      (** the best no-overshoot link ignoring [dead] — the hop the
          fault-free router ({!greedy_clockwise}) takes from [at] — or
          [None] when [at] has no link in [(at, key]] *)
}
(** One routing decision and, from the same search over the links, the
    decision a fault-free node would have made. A caller forwarding on
    a link other than [fault_free] knows its route has deviated from
    the fault-free path without running the step a second time. *)

val step_clockwise :
  ids:Id.t array -> row:int array -> dead:(int -> bool) -> at:int -> key:Id.t -> step
(** The clockwise step of node [at], whose identifier is [ids.(at)],
    read from its links [row] in clockwise order: strictly ascending by
    clockwise distance from [at], as every row of an overlay
    ({!Canon_overlay.Overlay.links}), of the maintenance simulator and
    of a live view is. Identifiers are distinct, so no two links lie at
    one distance and none at distance 0:
    - [fault_free] is the last link at clockwise distance [<= du], the
      distance from [at] to [key], found by one binary search;
    - [Forward] goes to the first link at or below it that is not
      [dead];
    - with no such link, the outcome is [Blocked] when a fault-free
      link exists and [Arrived] otherwise.

    O(log degree), plus one [dead] call per link scanned. [Forward]
    takes the live link leaving the least clockwise distance to the
    key, and [fault_free] equals the [Forward] target of the step with
    [dead = fun _ -> false] ([None] when that step arrives): the
    [prop.router] property "sorted step = two-pass reference". Every
    clockwise engine here and every [canon_net] hop, frozen or live,
    takes this step. On a row out of order the search may miss the
    best link. *)

val route :
  kind:string ->
  level:(int -> int -> int) ->
  n:int ->
  src:int ->
  key:Id.t ->
  (int -> step_outcome) ->
  Route.t
(** [route ~kind ~level ~n ~src ~key step] runs the one hop loop:
    starting at [src], ask [step] what the current node does and follow
    each [Forward] until a node answers [Arrived]; the route starts at
    [src] and ends there. A node that answers [Blocked] raises {!Stuck}
    with the path ending at it. [n] bounds the hop budget (the node
    count; the budget is [n + 1] hops): forwarding past it raises
    {!Stuck} with the partial path. With an ambient trace installed,
    the walk offers it one span labelled [kind] and [key] (an
    identifier), with [level u v] the level of each link used. *)
