(** Zipfian weights and sampling.

    The paper assigns nodes to hierarchy branches with a Zipfian
    distribution: "the number of nodes in the k-th largest branch is
    proportional to 1/k^1.25". This module supplies those weights and a
    generic finite Zipf sampler (also used for key popularity in the
    caching workload). *)

type sampler

val sampler : n:int -> alpha:float -> sampler
(** Precomputed cumulative distribution over ranks [0, n). *)

val draw : sampler -> Canon_rng.Rng.t -> int
(** A rank in [0, n), rank 0 being the most popular. *)

val split_counts : total:int -> branches:int -> alpha:float -> int array
(** [split_counts ~total ~branches ~alpha] deterministically apportions
    [total] items over [branches] branches proportionally to Zipf
    weights, using largest-remainder rounding so counts sum exactly to
    [total]. Used to shape hierarchies like the paper's. *)
