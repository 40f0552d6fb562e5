(** Minimal JSON values and printing.

    The repository deliberately has no third-party JSON dependency; this
    module implements exactly the subset the telemetry layer needs:
    construction and compact one-line printing (for JSONL sinks and
    [BENCH.json]). Nothing in the library reads JSON back: the
    [telemetry] tests carry their own parser, and the CI checks and the
    perfbench scripts read these files with Python's [json]. *)

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
