(** Descriptive statistics for experiment measurements. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]: nearest-rank percentile on a
    copy of [xs] (input is not modified). Requires a non-empty array. *)
