(** Shared set-up for the paper's experiments (§5).

    All experiments run at one of two scales: [`Paper] replicates the
    paper's parameters (up to 65536 nodes, 32768-node topology runs);
    [`Quick] shrinks everything for CI and tests while preserving every
    qualitative shape. *)

open Canon_hierarchy
open Canon_topology
open Canon_overlay

type scale = [ `Paper | `Quick ]

val scale_of_env : unit -> scale
(** [`Quick] when the CANON_SCALE environment variable is ["quick"],
    [`Paper] otherwise. *)

val sizes : scale -> int list
(** Network sizes for the n-sweeps: 1024..65536 at paper scale. *)

val topo_sizes : scale -> int list
(** Network sizes for the topology experiments: 2048..131072 at paper
    scale (the 131072 ceiling is past the paper's 65536 — feasible
    because the latency oracle needs no all-pairs table). *)

val big_n : scale -> int
(** The fixed size of the single-size experiments (32768 at paper
    scale). *)

val paper_fanout : int
(** 10 — fan-out of the experimental hierarchy. *)

val paper_zipf : float
(** 1.25 — the Zipfian placement exponent. *)

val hierarchy_population :
  seed:int -> levels:int -> n:int -> Population.t
(** The §5.1 set-up: fanout-10 hierarchy with the given number of
    levels, Zipfian(1.25) node placement, fresh unique 32-bit ids. *)

type topo_setup = {
  ts : Transit_stub.t;
  latency : Latency.t;
  tree : Domain_tree.t;
  mean_direct : float;  (** mean node-to-node latency, stretch denominator *)
}

val topology_setup : seed:int -> topo_setup
(** Generates the 2040-router transit-stub internet and its structural
    latency oracle ({!Canon_topology.Latency}). *)

val topology_population : seed:int -> topo_setup -> n:int -> Population.t
(** Attaches [n] overlay nodes uniformly to stub routers; the hierarchy
    is the topology's five-level tree. *)

val node_latency : topo_setup -> Population.t -> int -> int -> float
(** End-to-end latency between two overlay nodes (access links
    included). *)

val observed_domain : Rings.t -> int array * bool array
(** The domain a containment measurement observes: the largest depth-1
    domain (the first one among equals). Returns its members and a mask
    over the population marking them. *)

val mean_hops :
  Canon_rng.Rng.t -> Overlay.t -> samples:int -> float
(** Mean greedy-clockwise hop count between random node pairs; each
    lookup feeds the [router.*] metrics. *)

val mean_hops_with :
  (Overlay.t -> src:int -> key:Canon_idspace.Id.t -> Route.t) ->
  Canon_rng.Rng.t ->
  Overlay.t ->
  samples:int ->
  float
(** Mean hop count of [router] between random node pairs, with no
    metrics. *)

val mean_route_latency :
  Canon_rng.Rng.t ->
  Overlay.t ->
  node_latency:(int -> int -> float) ->
  samples:int ->
  float
(** Mean greedy-clockwise route latency between random node pairs. *)
