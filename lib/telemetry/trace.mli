(** Span sampling in front of a pluggable sink.

    A trace sits between the instrumented code and the outside world:
    the router hooks call {!record} with the raw material of a span
    (visited nodes, per-edge level and latency functions); the trace
    applies sampling, assigns sequence numbers, and hands every sampled
    span to its {!Sink}. It keeps no span itself: a test reads spans
    back from a {!Sink.memory}.

    The {e ambient} trace is an optional process-wide current trace,
    installed by the CLI ([--trace FILE]). The hop loop
    ([Canon_core.Router.route]) and [Canon_net.Net] read it themselves,
    once per lookup, so no caller passes a trace down; when unset — the
    default, and the benchmark configuration — they take their untraced
    branch and build no span. *)

type t

val create : ?sample_every:int -> ?sink:Sink.t -> unit -> t
(** [sample_every] (default 1 = every lookup) keeps the 1st, (k+1)-th,
    (2k+1)-th … recorded span; [sink] defaults to {!Sink.null}. A new
    trace holds no latency oracle ({!set_latency}). Raises
    [Invalid_argument] when [sample_every < 1]. *)

val record :
  t ->
  kind:string ->
  key:int ->
  outcome:Span.outcome ->
  nodes:int array ->
  level:(int -> int -> int) ->
  ?latency:(int -> int -> float) ->
  unit ->
  unit
(** Counts one lookup; when sampling selects it, builds the span and
    writes it to the sink. [?latency] overrides the trace-level oracle
    for this span. *)

val set_latency : t -> (int -> int -> float) option -> unit
(** Installs (or clears) the default per-edge latency oracle, which
    prices spans recorded without an explicit one. Experiments build
    their latency model long after the CLI created the trace, and use
    this to upgrade subsequent spans from hop-only to physical-latency
    records; [Canon_experiments.Registry.run] clears it before each
    experiment. *)

val seen : t -> int
(** Total lookups offered via {!record}. *)

val emitted : t -> int
(** Spans that passed sampling (= span ids assigned). *)

val flush : t -> unit
(** Closes the sink (flushing a file sink to disk). *)

val set_ambient : t option -> unit

val ambient : unit -> t option
