open Canon_hierarchy
open Canon_topology
open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng

type scale = [ `Paper | `Quick ]

let scale_of_env () =
  match Sys.getenv_opt "CANON_SCALE" with
  | Some ("quick" | "QUICK") -> `Quick
  | Some _ | None -> `Paper

let sizes = function
  | `Paper -> [ 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
  | `Quick -> [ 1024; 2048; 4096 ]

let topo_sizes = function
  (* 131072 exceeds the paper's 65536-node ceiling: affordable because
     the latency oracle answers from the transit-stub structure instead
     of an all-pairs table. *)
  | `Paper -> [ 2048; 4096; 8192; 16384; 32768; 65536; 131072 ]
  | `Quick -> [ 2048; 4096 ]

let big_n = function
  | `Paper -> 32768
  | `Quick -> 4096

let paper_fanout = 10

let paper_zipf = 1.25

let hierarchy_population ~seed ~levels ~n =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:paper_fanout ~levels) in
  Population.create rng ~tree ~policy:(Placement.Zipfian paper_zipf) ~n

type topo_setup = {
  ts : Transit_stub.t;
  latency : Latency.t;
  tree : Domain_tree.t;
  mean_direct : float;
}

let topology_setup ~seed =
  let rng = Rng.create seed in
  let ts = Transit_stub.generate rng Transit_stub.default_params in
  let latency = Latency.create ts in
  let mean_direct = Latency.mean_node_latency latency (Rng.split rng) ~samples:20_000 in
  { ts; latency; tree = Transit_stub.hierarchy ts; mean_direct }

let topology_population ~seed setup ~n =
  let rng = Rng.create seed in
  Population.create_with_attach rng ~tree:setup.tree
    ~leaf_to_attach:(fun leaf -> Transit_stub.stub_router_of_leaf setup.ts leaf)
    ~n

let node_latency setup pop =
  match pop.Population.attach with
  | None -> invalid_arg "Common.node_latency: population has no attachment points"
  | Some attach -> fun a b -> Latency.node_latency setup.latency attach.(a) attach.(b)

let observed_domain rings =
  let pop = Rings.population rings in
  let tree = pop.Population.tree in
  let kids = Domain_tree.children tree (Domain_tree.root tree) in
  let best = ref kids.(0) and best_size = ref 0 in
  Array.iter
    (fun d ->
      let s = Ring.size (Rings.ring rings d) in
      if s > !best_size then begin
        best := d;
        best_size := s
      end)
    kids;
  let members = Ring.members (Rings.ring rings !best) in
  let inside = Array.make (Population.size pop) false in
  Array.iter (fun v -> inside.(v) <- true) members;
  (members, inside)

module Metrics = Canon_telemetry.Metrics
module Trace = Canon_telemetry.Trace

(* Every measured lookup of the experiment helpers feeds the registry,
   so `--metrics` has something to print for any experiment; the router
   offers spans to the ambient trace when the CLI installed one
   (`--trace FILE`). *)
let lookups_counter = Metrics.counter "router.lookups"

let hops_hist =
  Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0; 32.0; 64.0 |]
    "router.hops"

let route_latency_hist = Metrics.histogram "router.route_latency_ms"

let mean_hops_with router rng overlay ~samples =
  let n = Overlay.size overlay in
  let total = ref 0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    total := !total + Route.hops (router overlay ~src ~key:(Overlay.id overlay dst))
  done;
  Float.of_int !total /. Float.of_int samples

let mean_hops =
  mean_hops_with (fun overlay ~src ~key ->
      let route = Router.greedy_clockwise overlay ~src ~key in
      Metrics.incr lookups_counter;
      Metrics.observe hops_hist (Float.of_int (Route.hops route));
      route)

let mean_route_latency rng overlay ~node_latency ~samples =
  let n = Overlay.size overlay in
  Option.iter (fun tr -> Trace.set_latency tr (Some node_latency)) (Trace.ambient ());
  let total = ref 0.0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst) in
    let lat = Route.latency route ~node_latency in
    Metrics.incr lookups_counter;
    Metrics.observe hops_hist (Float.of_int (Route.hops route));
    Metrics.observe route_latency_hist lat;
    total := !total +. lat
  done;
  !total /. Float.of_int samples
