(** Plain-text table rendering for experiment output.

    Every figure/table in the benchmark harness prints through this
    module so the output has one consistent, diff-friendly format. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title row and the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row; must have as many cells as there are columns. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label xs] renders [label] followed by each float
    with 3 decimal places. [1 + length xs] must equal the column count. *)

val title : t -> string
(** The title as given to {!create} (used by the JSON export). *)

val columns : t -> string list
(** The header row. *)

val rows : t -> string list list
(** Data rows in insertion order (used by integration tests to assert
    the qualitative shape of experiment output). *)

val render : t -> string
(** The table as an aligned ASCII string (ends with a newline). A test
    seam: [test/golden] diffs and digests every experiment table through
    it, and the [stats] "table render" test reads it. *)

val print : t -> unit
(** [render] to stdout. *)
