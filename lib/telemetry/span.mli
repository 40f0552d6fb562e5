(** A per-lookup trace record: one span per routed message.

    A span captures the full life of one lookup — source, key, outcome,
    and one event per node visited. Event [0] is the source (its link
    level is [-1]: no inbound link); event [i > 0] records the node
    reached by the [i]-th hop, the hierarchy level of the link used to
    reach it, and the cumulative physical latency from the source.

    Invariants (asserted by the test suite):
    - the hop count is [Array.length t.events - 1];
    - cumulative latency is non-decreasing along the events;
    - [path t] equals the corresponding {!Canon_overlay.Route.t} node
      sequence for spans recorded by the router hooks.

    The {e level} of a link (u, v) is the depth of the lowest common
    ancestor domain of the two endpoints: 0 is a top-level (root-ring)
    link, deeper is more local. Engines without a hierarchy report
    level 0 for every hop. *)

type event = {
  node : int;
  level : int;  (** hierarchy depth of the link used to arrive; -1 at the source *)
  cum_latency : float;  (** physical ms from the source; 0 without an oracle *)
}

type outcome =
  | Arrived  (** routing terminated normally *)
  | Stuck  (** hop budget exceeded ({!Canon_core.Router.Stuck}) *)
  | Stranded  (** failure-avoiding routing found no live next hop *)

type t = {
  id : int;  (** sequence number within the emitting {!Trace} *)
  kind : string;  (** engine or operation label, e.g. ["greedy_clockwise"] *)
  src : int;
  key : int;
      (** the 32-bit target identifier; for a prefix CAN route, the CAN
          key left-aligned in the 32-bit space *)
  outcome : outcome;
  events : event array;
}

val make :
  id:int ->
  kind:string ->
  key:int ->
  outcome:outcome ->
  nodes:int array ->
  level:(int -> int -> int) ->
  ?latency:(int -> int -> float) ->
  unit ->
  t
(** Builds the event list from a visited-node sequence: [level u v]
    gives the link level of each traversed edge, [latency u v] (when
    supplied) its physical cost. [nodes] must be non-empty. *)

val path : t -> int array
(** The visited nodes in order (copies; spans are immutable). A test
    seam: the [telemetry] span tests, the [net] "telemetry" test and
    [prop.router]'s "one driver = historical engines, overlays" read
    it. *)

val outcome_to_string : outcome -> string
(** The [outcome] field of {!to_jsonl}. A test seam: [prop.router]'s
    "one driver = historical engines, overlays" prints a mismatching
    span with it. *)

val to_jsonl : t -> string
(** One compact JSON object, no newline — a JSONL line body with the
    fields [id], [kind], [src], [key], [outcome], [hops] and [events],
    each event an object [{node, level, lat}]. *)
