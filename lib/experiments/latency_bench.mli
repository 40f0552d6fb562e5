(** Cost and exactness benchmark for the structural latency oracle, on
    transit-stub topologies scaled to 4096/16384/65536 routers
    (1024/4096 at quick scale).

    For each size: [Latency.create] time, the time for 1000 random
    node-latency lookups, the intra-domain tables those lookups built,
    the oracle's resident memory beyond the topology it points to, and
    an exactness check — every destination of a few random source
    routers compared bit for bit against a full {!Canon_topology.Graph.dijkstra}
    row (pairs checked, mismatches). *)

val scaled_params : routers:int -> Canon_topology.Transit_stub.params
(** The default transit skeleton with stub domains widened to reach
    about [routers] routers. *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t
