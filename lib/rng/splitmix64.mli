(** SplitMix64: a fast, splittable 64-bit pseudo-random generator.

    This is the generator of Steele, Lea and Flood ("Fast splittable
    pseudorandom number generators", OOPSLA 2014). It is used as the
    deterministic randomness substrate for every experiment in this
    repository: identical seeds always reproduce identical overlays,
    workloads and measurements, on any platform. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator initialised from [seed]. *)

val next : t -> int64
(** [next t] advances [t] and returns 64 uniformly distributed bits. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. Splitting lets
    sub-experiments consume randomness without perturbing one another. *)
