(** The literal CAN construction of §3.4: a binary prefix tree with
    virtual-node padding.

    Node identifiers form a binary prefix tree (left branch 0, right
    branch 1); the root-to-leaf path is the node's identifier, so
    identifiers have different lengths when the tree is uneven. A node
    with a shorter identifier is treated as one {e virtual node} per
    padding of its identifier to the maximum depth. Edges are exactly
    the hypercube edges between virtual identifiers differing in one
    bit; routing is left-to-right bit fixing.

    We build the prefix tree by recursive balanced bisection of the
    node set (the generalization the paper describes yields a
    logarithmic-degree network), so leaf depths differ by at most one
    and each real node stands for at most two virtual nodes.

    This module complements {!Can}/{!Can_can}, which realise the same
    network over the common 32-bit space via the XOR-closest bucket
    rule; the parity benchmark checks both give logarithmic degree and
    indistinguishable hop counts. *)

type t

val build : Canon_rng.Rng.t -> n:int -> t
(** Builds the prefix tree and the hypercube adjacency for [n >= 1]
    nodes. *)

val depth : t -> int
(** Maximum identifier length [L]. *)

val prefix_of : t -> int -> int * int
(** [prefix_of t node] is [(bits, length)]: the node's identifier as an
    integer of [length] bits (most significant bit first). A test seam:
    the [prefix-can] "structure", "owners partition space", "edges are
    hypercube" and "degree" tests read it. *)

val owner : t -> int -> int
(** [owner t key] for a key of [depth t] bits: the unique node whose
    identifier is a prefix of the key. A test seam: the [prefix-can]
    "routing" test checks that every route ends at it. *)

val neighbors : t -> int -> int array
(** Hypercube neighbours (deduplicated). A test seam: the [prefix-can]
    "edges are hypercube" and "degree" tests read it. *)

val mean_degree : t -> float

val route : t -> src:int -> key:int -> int list
(** Bit-fixing route from [src] to the owner of [key] (a [depth t]-bit
    value); the returned list starts at [src] and ends at the owner. *)
