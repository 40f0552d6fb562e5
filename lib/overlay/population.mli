(** A population of system nodes: unique identifiers plus a position in
    the conceptual hierarchy (and, optionally, an attachment point in a
    physical topology).

    This is the input shared by every DHT construction: constructions
    add links, they never alter the population. *)

open Canon_idspace
open Canon_hierarchy

type t = {
  ids : Id.t array;  (** node index -> unique identifier *)
  tree : Domain_tree.t;
  leaf_of_node : int array;  (** node index -> leaf domain of [tree] *)
  attach : int array option;
      (** node index -> physical attachment point (e.g. stub-router
          vertex), when a topology underlies the experiment *)
}

val size : t -> int

val create :
  Canon_rng.Rng.t ->
  tree:Domain_tree.t ->
  policy:Placement.policy ->
  n:int ->
  t
(** Draws [n] distinct uniformly random identifiers and places each node
    at a leaf of [tree] under [policy]. No attachment points. *)

val create_with_attach :
  Canon_rng.Rng.t ->
  tree:Domain_tree.t ->
  leaf_to_attach:(int -> int) ->
  n:int ->
  t
(** Places nodes uniformly over the leaves of [tree] and records each
    node's physical attachment point [leaf_to_attach leaf]. Used with
    topology-induced hierarchies where each leaf domain corresponds to
    a stub router. *)

val unique_ids : Canon_rng.Rng.t -> int -> Id.t array
(** [n] distinct uniformly random identifiers (rejection sampling). *)

val domain_of_node_at_depth : t -> int -> int -> int
(** [domain_of_node_at_depth t node k] is the ancestor domain of
    [node]'s leaf at depth [k] (clipped to the leaf's own depth). *)

val lca_of_nodes : t -> int -> int -> int
(** Lowest common ancestor domain of two nodes' leaves. *)

val link_level : t -> int -> int -> int
(** [link_level t u v] is the hierarchy level of the link (u, v): the
    depth of the lowest common ancestor domain of the two endpoints —
    0 for a top-level link, deeper is more local. The level a trace
    span records for each hop. *)
