(** Assignment of system nodes to the leaves of a domain hierarchy.

    The paper evaluates two distributions (§5.1): uniformly random
    assignment of each node to a leaf, and a Zipfian distribution where
    the number of nodes in the k-th largest branch within any domain is
    proportional to 1/k{^1.25}. Both are implemented here, plus an
    explicit assignment for topology-driven hierarchies. *)

type policy =
  | Uniform  (** each node picks a leaf uniformly at random *)
  | Zipfian of float
      (** recursive Zipfian branch sizing with the given exponent
          (the paper uses 1.25) *)

val assign :
  Canon_rng.Rng.t -> Domain_tree.t -> policy -> n:int -> int array
(** [assign rng tree policy ~n] returns an array mapping each node index
    in [0, n) to a leaf domain of [tree]. With [Zipfian], counts are
    apportioned top-down with largest-remainder rounding, then nodes are
    shuffled over the resulting leaf slots so node index carries no
    information. Requires [n >= 0]. *)

val leaf_population : Domain_tree.t -> int array -> int array
(** [leaf_population tree leaf_of_node] counts nodes per domain index
    (all domains, not just leaves: an internal domain's count is the sum
    over its subtree). A test seam: the [hierarchy] "placement uniform",
    "placement zipf" and "placement zipf deeper" tests read it. *)
