(** Latency oracle over a transit-stub topology.

    Distances come from the topology's structure instead of per-source
    Dijkstra rows. Exactly one edge leaves each stub domain: the
    transit-stub link from its gateway router to its transit node (see
    {!Transit_stub.gateway}). So a shortest path between routers in
    different stub domains [A] and [B] is

    [d(a, gw_A) + transit_stub + D_core(t_A, t_B) + transit_stub + d(gw_B, b)]

    where [D_core] is the distance between transit nodes over transit
    links alone, and a path between two routers of one stub domain
    never leaves it. {!create} precomputes every router's distance to
    its transit node and the T x T core table ([T] transit nodes) in
    O(V + T^2) Dijkstra work; a stub domain's all-pairs table is built
    by a Dijkstra bounded to that domain on the first query with both
    ends inside it.

    {b Exactness.} With integer link weights (the paper's 100/20/5 ms
    classes) every sum involved is an exactly representable integer, so
    answers are bit-identical to {!Graph.dijkstra} on the whole graph
    whatever order the terms are added in. With non-integer weights the
    two may differ by float rounding.

    Overlay nodes attach to stub routers over an access link
    ([access_ms], 1 ms in the paper), so the latency between two overlay
    nodes attached to routers [r1] and [r2] is
    [access + d(r1, r2) + access] — 2 ms when both hang off the same
    stub router, matching the paper's observation.

    Every oracle feeds the process-wide [latency.*] telemetry counters
    (tables built, hits, misses). *)

type t

val create : Transit_stub.t -> t
(** O(V + T^2): gateway distances and the transit-core table; no
    intra-domain table is built until queried. *)

val router_latency : t -> int -> int -> float
(** Shortest-path latency between two routers, in ms: a few array reads
    and two float additions, plus a one-time table build on the first
    query inside a stub domain. *)

val node_latency : t -> int -> int -> float
(** [node_latency t r1 r2] is the overlay-node-to-overlay-node latency
    between nodes attached to stub routers [r1] and [r2], including both
    access links. [r1 = r2] gives twice the access latency. *)

type stats = {
  rows_computed : int;  (** intra-domain tables built *)
  hits : int;  (** queries answered without building a table *)
  misses : int;  (** queries that built an intra-domain table *)
}

val stats : t -> stats
(** This oracle's counters since {!create}. *)

val mean_node_latency : t -> Canon_rng.Rng.t -> samples:int -> float
(** Monte-Carlo estimate of the mean direct latency between two overlay
    nodes attached to uniformly random {e distinct} stub routers — the
    denominator of the paper's "stretch" metric. (A degenerate topology
    with a single stub router samples the same-router pair.) *)
