(** The one list of experiments: the paper's §5 figures, the theorem
    checks and the extensions. The CLI builds one subcommand per entry,
    the bench harness runs them (plus its Bechamel [micro] suite), and
    the golden tests pin the tables of the [pinned] ones. *)

type t = {
  name : string;  (** the CLI subcommand and bench id *)
  doc : string;  (** one line, shown by [canon --help] *)
  run : scale:Common.scale -> seed:int -> Canon_stats.Table.t;
  pinned : bool;
      (** the table is a function of the seed alone, so the golden tests
          pin it; false only for [latency], whose table holds wall
          times *)
}

val all : t list
(** Every experiment, in the bench harness's order. *)

val run : t -> scale:Common.scale -> seed:int -> Canon_stats.Table.t
(** [t.run] after zeroing the process-wide {!Canon_telemetry.Metrics},
    so the registry holds this experiment's metrics alone when it
    returns, and after clearing the ambient trace's latency oracle
    ({!Canon_telemetry.Trace.set_latency}), so no span is priced by an
    oracle an earlier experiment installed for its own population. *)
