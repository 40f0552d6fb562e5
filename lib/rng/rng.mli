(** Deterministic random sources for experiments.

    A thin, convenient layer over {!Splitmix64} providing the draws the
    rest of the repository needs: bounded integers, floats, permutations,
    samples without replacement, and independent sub-streams. All
    functions are deterministic given the generator state. *)

type t
(** A mutable random source. *)

val create : int -> t
(** [create seed] makes a source from an integer seed. *)

val split : t -> t
(** [split t] returns an independent sub-stream, advancing [t] once.
    Use one sub-stream per logical component (placement, workload, ...)
    so that adding draws to one component never shifts another. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [0, n). Requires [n > 0]. Unbiased
    (rejection sampling). *)

val float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool
(** A fair coin. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniform element of [a]. Requires [a] non-empty. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean (for churn inter-arrivals). *)
