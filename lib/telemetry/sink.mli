(** Pluggable span output.

    A sink consumes {!Span.t} values. Three implementations cover every
    current consumer: {!null} (tracing structurally enabled but output
    discarded), {!memory} (tests and in-process inspection), and
    {!jsonl_file} (the [--trace FILE] export consumed by external
    tooling), the only one that renders a span. *)

type t

val null : t
(** Discards every span. *)

val memory : unit -> t
(** Keeps every span in memory, unbounded; read back with {!spans}. A
    test seam: the [telemetry] span tests, the [route] "walk" test, the
    [net] "telemetry" test, the [experiments] "robustness determinism"
    and "registry clears the trace's oracle" tests and [prop.router]'s
    "one driver" properties write to it. *)

val jsonl_file : string -> t
(** Opens (truncates) [path] and appends one {!Span.to_jsonl} line per
    {!write}. Raises [Sys_error] if the file cannot be created. *)

val write : t -> Span.t -> unit
(** Emits one span. No-op on a closed sink. *)

val spans : t -> Span.t list
(** Spans kept by a {!memory} sink, oldest first; [[]] for other sinks.
    A test seam: the tests named at {!memory} read it. *)

val close : t -> unit
(** Flushes and closes a file sink; idempotent, no-op for others. *)
