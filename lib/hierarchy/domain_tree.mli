(** The conceptual hierarchy of domains (paper §2.1, Figure 1).

    Domains are the internal vertices of a rooted tree; system nodes hang
    off the leaves ("nodes are assumed to be hanging off the leafs rather
    than being leafs themselves"). A domain is identified by a dense
    integer index; the root always has index 0 and depth 0.

    Canon never needs global knowledge of this tree at run time — a node
    only needs its own leaf and the ability to compute lowest common
    ancestors — but the simulator holds the whole tree to build overlays
    and to evaluate locality. *)

type t

type spec =
  | Leaf
  | Node of spec list
      (** Shape description used to build trees: a [Node] lists its
          children in order. [Node []] is invalid. *)

val of_spec : spec -> t
(** Builds a tree from a shape. A bare [Leaf] spec gives a one-domain
    tree whose root is itself a leaf. *)

val uniform_spec : fanout:int -> levels:int -> spec
(** The paper's experimental hierarchy: a complete tree with the given
    fanout and number of levels below the root. [levels = 1] yields a
    single leaf domain (the flat case); [levels = l] yields a tree of
    height [l] whose internal vertices all have [fanout] children.
    Requires [fanout >= 1] and [levels >= 1]. *)

val num_domains : t -> int

val root : t -> int

val parent : t -> int -> int
(** Parent index; raises [Invalid_argument] on the root. *)

val children : t -> int -> int array
(** Children in order; empty for leaves. *)

val depth : t -> int -> int
(** Root has depth 0. *)

val height : t -> int
(** Maximum depth over all domains. *)

val is_leaf : t -> int -> bool

val leaves : t -> int array
(** All leaf domains, in left-to-right order. *)

val num_leaves : t -> int

val lca : t -> int -> int -> int
(** Lowest common ancestor of two domains. *)

val ancestor_at_depth : t -> int -> int -> int
(** [ancestor_at_depth t d k] is the ancestor of [d] at depth [k];
    requires [0 <= k <= depth t d]. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Reflexive ancestry test. *)

val subtree_leaves : t -> int -> int array
(** Leaves of the subtree rooted at the given domain, left to right. A
    test seam: [prop.replication]'s "placement = leaf_sequence
    reference" properties build their reference from it. *)
