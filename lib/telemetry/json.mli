(** Minimal JSON values, printing, and parsing.

    The repository deliberately has no third-party JSON dependency; this
    module implements exactly the subset the telemetry layer needs:
    construction and compact one-line printing (for JSONL sinks and
    [BENCH.json]) and a strict recursive-descent parser. Only the
    [telemetry] tests read the parser: they parse trace lines and the
    metrics report back to check what was written, and check the parser
    itself. The CI checks and
    the perfbench scripts read these files with Python's [json]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no newlines — one value is one JSONL line.
    Floats print via ["%.17g"] so parsing gives back the same float;
    non-finite floats render as [null] (JSON has no representation). *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON value (surrounding whitespace
    allowed). Numbers without ['.'], ['e'] or ['E'] parse as [Int]. A
    test seam: the [telemetry] "jsonl round-trip", "jsonl file sink",
    "report rendering", "json parser accepts" and "json parser rejects"
    tests read it. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. A
    test seam: the [telemetry] "jsonl round-trip" and "report rendering"
    tests read it. *)
