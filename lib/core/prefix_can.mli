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

    No tree is kept: the leaves, numbered left to right, own ascending
    ranges of [depth]-bit keys, so an owner is one binary search and a
    node's neighbours across a prefix bit are the owners of the range
    with that bit flipped.

    This module complements {!Can}/{!Can_can}, which realise the same
    network over the common 32-bit space via the XOR-closest bucket
    rule; the parity benchmark checks both give logarithmic degree and
    indistinguishable hop counts. *)

type t

val build : Canon_rng.Rng.t -> n:int -> t
(** Bisects [n >= 1] nodes into a prefix tree. *)

val depth : t -> int
(** Maximum identifier length [L]. *)

val prefix_of : t -> int -> int * int
(** [prefix_of t node] is [(bits, length)]: the node's identifier as an
    integer of [length] bits (most significant bit first). A test seam:
    the [prefix-can] "structure", "owners partition space", "edges are
    hypercube" and "degree" tests and [prop.sweep]'s "prefix CAN = trie
    construction" read it. *)

val owner : t -> int -> int
(** [owner t key] for a key of [depth t] bits: the unique node whose
    identifier is a prefix of the key. A test seam: the [prefix-can]
    "routing" test checks that every route ends at it, and
    [prop.sweep]'s "prefix CAN = trie construction" reads it. *)

val neighbors : t -> int -> int array
(** Hypercube neighbours, each once, never the node itself. A test
    seam: the [prefix-can] "edges are hypercube" and "degree" tests
    and [prop.sweep]'s "prefix CAN = trie construction" read it. *)

val mean_degree : t -> float

val route : t -> src:int -> key:int -> Canon_overlay.Route.t
(** Bit-fixing route from [src] to the owner of [key] (a [depth t]-bit
    value); the path starts at [src] and ends at the owner. A step over
    {!Router.route}: traced spans have kind ["prefix_can.route"], level
    0 on every link, and the key left-aligned in the 32-bit identifier
    space ([key lsl (32 - depth t)]). Raises [Invalid_argument] on a key
    outside [[0, 2{^depth t})]. *)
