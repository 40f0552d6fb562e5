(** Bounded in-memory span collector with sampling and a pluggable
    sink.

    A trace sits between the instrumented code and the outside world:
    the router hooks call {!record} with the raw material of a span
    (visited nodes, per-edge level and latency functions); the trace
    applies sampling, assigns sequence numbers, keeps the most recent
    [capacity] spans in memory for in-process inspection, and streams
    every sampled span to its {!Sink}.

    The {e ambient} trace is an optional process-wide current trace,
    installed by the CLI ([--trace FILE]). The routing engines
    ([Canon_core.Router]) and [Canon_net.Net] read it themselves, once
    per lookup, so no caller passes a trace down; when unset — the
    default, and the benchmark configuration — they take their untraced
    branch and build no span. *)

type t

val create : ?capacity:int -> ?sample_every:int -> ?sink:Sink.t -> unit -> t
(** [capacity] (default 4096) bounds in-memory retention — older spans
    are dropped, the sink still sees all sampled spans. [sample_every]
    (default 1 = every lookup) keeps the 1st, (k+1)-th, (2k+1)-th …
    recorded span. A new trace holds no latency oracle
    ({!set_latency}). Raises [Invalid_argument] when [capacity < 1] or
    [sample_every < 1]. *)

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
    both retains it and writes it to the sink; the span is rendered to
    JSONL only when the sink {!Sink.keeps} it. [?latency] overrides the
    trace-level oracle for this span. *)

val set_latency : t -> (int -> int -> float) option -> unit
(** Installs (or clears) the default per-edge latency oracle, which
    prices spans recorded without an explicit one. Experiments build
    their latency model long after the CLI created the trace, and use
    this to upgrade subsequent spans from hop-only to physical-latency
    records. *)

val seen : t -> int
(** Total lookups offered via {!record}. *)

val emitted : t -> int
(** Spans that passed sampling (= span ids assigned). *)

val spans : t -> Span.t list
(** Retained spans, oldest first — at most [capacity], the most recent
    ones. A test seam: the [telemetry] span tests, the [net] "telemetry"
    test and [prop.router]'s "one driver = historical engines, overlays"
    read it. *)

val flush : t -> unit
(** Closes the sink (flushing a file sink to disk). *)

val set_ambient : t option -> unit

val ambient : unit -> t option
