(** Integer-valued histograms, used for the degree-distribution figure
    (paper Fig. 4) and for sanity plots in examples. *)

type t

val create : unit -> t
(** An empty histogram over non-negative integer values. *)

val add : t -> int -> unit
(** [add t v] counts one observation of value [v >= 0]. *)

val count : t -> int -> int
(** Observations of exactly [v]. *)

val total : t -> int
(** Total number of observations. *)

val max_value : t -> int
(** Largest value observed; 0 if empty. *)
