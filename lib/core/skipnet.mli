(** SkipNet (Harvey et al., USITS 2003) — the related-work system the
    paper compares against in §6.

    SkipNet arranges nodes in a doubly-linked ring sorted by {e name}
    (we use hierarchy order, so every domain is a contiguous name
    interval) and gives each node one pointer per level [i] to its
    nearest name-neighbours among the nodes sharing the first [i] bits
    of its random numeric identifier — a skip-list-like structure.

    Two routing modes, matching the paper's discussion:
    - {!route_by_name}: monotone in name order, so paths between two
      nodes of a domain {e never leave the domain} — SkipNet's explicit
      path locality;
    - {!route_by_numeric}: for hashed content; climbs numeric-prefix
      rings with clockwise name-order walks. This mode offers {e no
      guaranteed inter-domain path convergence}, which is exactly the
      gap the paper's §6 points out and Canon closes; the [skipnet]
      benchmark quantifies it against Crescendo. *)

open Canon_overlay

type t

val build : Population.t -> t
(** Names are the hierarchy order of [Population.leaf_of_node] (ties by
    node index); numeric identifiers are the population's ids. *)

val name_rank : t -> int -> int
(** Position of a node in name order. A test seam: the [skipnet] "name
    routing monotone/local" test and [prop.router]'s "one driver
    = historical group and name routing" read it. *)

val node_of_rank : t -> int -> int
(** The node at a position of the name order. A test seam: the
    [skipnet] "name order = hierarchy order" test and
    [prop.router]'s "one driver = historical group and name routing"
    read it. *)

val mean_degree : t -> float
(** Mean number of distinct pointer targets per node. *)

val route_by_name : t -> src:int -> dst:int -> Route.t
(** Monotone name-order routing; always reaches [dst]. A step over
    {!Router.route}: traced spans have kind ["skipnet.route_by_name"]
    and [dst]'s identifier as their key. *)

val route_by_numeric : t -> src:int -> key:Canon_idspace.Id.t -> Route.t
(** Routes toward a node whose numeric identifier best matches [key]
    (longest common prefix): a node matching [l] bits walks right along
    its level-[l] ring to the first node matching more, every ring step
    a hop, and the route ends at a node matching as many bits as any
    node does. A step over {!Router.route}: traced spans have kind
    ["skipnet.route_by_numeric"]. *)
