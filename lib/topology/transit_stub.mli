(** A transit-stub internet topology in the style of GT-ITM.

    The paper (§5.2) uses the GT-ITM generator [12] to build a 2040-node
    router graph: routers are grouped into transit domains of transit
    nodes; each transit node attaches several stub domains of stub
    routers. Link latencies are fixed per class: 100 ms transit-transit,
    20 ms transit-stub, 5 ms stub-stub; an overlay node reaches its stub
    router in 1 ms. We reimplement that model from scratch here.

    The topology induces the paper's natural five-level conceptual
    hierarchy — root, transit domain, transit node, stub domain, stub
    router — exposed as a {!Canon_hierarchy.Domain_tree.t} whose leaves
    are stub routers. *)

type params = {
  transit_domains : int;
  transit_nodes_per_domain : int;
  stub_domains_per_transit_node : int;
  stub_routers_per_domain : int;
  transit_transit_ms : float;
  transit_stub_ms : float;
  stub_stub_ms : float;
  access_ms : float;  (** overlay node to its stub router *)
  extra_edge_fraction : float;
      (** density of redundant intra-domain links beyond the random
          spanning tree, as a fraction of the domain size *)
}

val default_params : params
(** 10 transit domains x 4 transit nodes, 5 stub domains per transit
    node, 10 stub routers each: 40 + 2000 = 2040 routers, matching the
    paper's 2040-node GT-ITM graph; latencies 100/20/5/1 ms. *)

type t

val generate : Canon_rng.Rng.t -> params -> t
(** Builds the router graph. The graph is connected by construction
    (random spanning trees within every domain plus a connected
    transit-domain backbone). *)

val params : t -> params

val graph : t -> Graph.t
(** The router graph; vertices [0, transit_count) are transit nodes,
    the rest are stub routers. *)

val num_routers : t -> int

val transit_count : t -> int

val stub_routers : t -> int array
(** All stub-router vertices, in hierarchy (left-to-right) order. *)

val hierarchy : t -> Canon_hierarchy.Domain_tree.t
(** The induced five-level domain tree (four levels of internal domains
    below the root would be depth 4; leaves are stub routers at depth 4). *)

val stub_router_of_leaf : t -> int -> int
(** Maps a leaf domain of {!hierarchy} to its stub-router vertex.
    Raises [Invalid_argument] for any other domain. *)

(** {2 Stub domains}

    Stub domains are numbered [0 .. stub_domain_count - 1] in vertex
    order. Domain [d] hangs off transit node
    [d / stub_domains_per_transit_node], its routers are a contiguous
    vertex range, and exactly one graph edge leaves it: the
    [transit_stub_ms] link from its {!gateway} router to its transit
    node. Every path between a domain's routers and the rest of the
    graph therefore crosses that one edge, which is what lets
    {!Latency} answer from a per-domain decomposition. *)

val stub_domain_count : t -> int

val stub_domain : t -> int -> int
(** The stub domain of a stub-router vertex. Raises [Invalid_argument]
    for transit vertices. *)

val stub_domain_routers : t -> int -> int * int
(** [(first, count)]: domain [d]'s routers are the vertices
    [first .. first + count - 1]. *)

val gateway : t -> int -> int
(** The router of domain [d] that carries its transit-stub link. *)

val domain_transit_node : t -> int -> int
(** The transit node domain [d] is attached to. *)
