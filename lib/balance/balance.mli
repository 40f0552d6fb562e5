(** Partition-balanced identifier selection (paper §4.3).

    With uniformly random identifiers the ratio of the largest to the
    smallest partition (the hash-space arc a node manages) grows as
    Θ(log² n). The paper's remedy: a joining node still picks a random
    point, locates the responsible node [n'], but then {e bisects the
    largest partition} among the nodes sharing [n']'s [B]-bit identifier
    prefix ([B] chosen so ~log n nodes share it), making the partitions
    a binary tree and driving the ratio to a constant (≤ 4 w.h.p.).

    The hierarchical variant additionally keeps partitions balanced at
    the lower levels of the domain hierarchy: a joining node places
    itself {e as far apart from the other nodes in its leaf domain as
    possible} — it bisects the largest partition of its leaf-domain
    ring — which the paper reports suffices to propagate balance
    through the hierarchy. *)

open Canon_idspace

type scheme =
  | Random_ids  (** baseline: uniformly random identifiers *)
  | Bisection  (** the paper's flat balancing scheme *)
  | Hierarchical
      (** far-apart placement within the joining node's leaf domain *)

val select_ids :
  Canon_rng.Rng.t -> scheme -> leaf_of_node:int array -> Id.t array
(** Simulates the nodes joining one by one (in index order) under the
    scheme and returns the identifier each one chose. [leaf_of_node]
    matters only to [Hierarchical]. All identifiers are distinct. *)

val partition_ratio : Id.t array -> float
(** max/min partition size, a node's partition being the arc from its
    id to the next id clockwise; [nan] with fewer than 2 nodes. Raises
    [Invalid_argument] on duplicate ids. *)

val domain_partition_ratio : Id.t array -> members:int array -> float
(** Partition ratio computed within a sub-ring: each member's partition
    is the arc to the next member. *)
