(** Pluggable span output.

    A sink consumes rendered JSONL lines. Three implementations cover
    every current consumer: {!null} (tracing structurally enabled but
    output discarded), {!memory} (tests and in-process inspection), and
    {!jsonl_file} (the [--trace FILE] export consumed by external
    tooling). *)

type t

val null : t
(** Discards every line. *)

val memory : unit -> t
(** Accumulates lines in memory, unbounded; read back with {!lines}. A
    test seam: the [experiments] "robustness determinism" and
    [telemetry] "span invariants (fig5 workload)" and "sinks" tests
    write to it. *)

val jsonl_file : string -> t
(** Opens (truncates) [path] and appends one line per {!write}. Raises
    [Sys_error] if the file cannot be created. *)

val write : t -> string -> unit
(** [write t line] emits one JSONL line ([line] must not contain a
    newline; the sink adds it). No-op on a closed sink. *)

val keeps : t -> bool
(** [false] when {!write} would discard every line: the {!null} sink,
    or any closed sink. {!Trace.record} renders a span only for a sink
    that keeps it. *)

val lines : t -> string list
(** Lines retained by a {!memory} sink, oldest first; [[]] for other
    sinks. A test seam: the [experiments] "robustness determinism" test
    compares two runs' traces through it, and the [telemetry] "sinks"
    test reads it. *)

val close : t -> unit
(** Flushes and closes a file sink; idempotent, no-op for others. *)
