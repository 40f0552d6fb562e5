(* CDN-style caching over the transit-stub internet.

   A 4096-node Crescendo overlay runs on the paper's 2040-router
   transit-stub topology. Clients request a Zipf-popular catalogue with
   hierarchical locality of reference; answers are cached at the domain
   proxies (§4.2). The example reports hit rate, mean latency and
   inter-domain traffic with caching off vs on, plus the multicast-tree
   savings of path convergence (§5.4).

   Run with:  dune exec examples/cdn_caching.exe *)

open Canon_topology
open Canon_overlay
open Canon_core
open Canon_storage
open Canon_workload
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table
module Zipf = Canon_stats.Zipf
module Domain_tree = Canon_hierarchy.Domain_tree

let () =
  let rng = Rng.create 9090 in
  Printf.printf "Generating transit-stub internet (2040 routers) ...\n%!";
  let ts = Transit_stub.generate (Rng.split rng) Transit_stub.default_params in
  let latency = Latency.create ts in
  let tree = Transit_stub.hierarchy ts in
  let n = 4096 in
  let pop =
    Population.create_with_attach (Rng.split rng) ~tree
      ~leaf_to_attach:(fun leaf -> Transit_stub.stub_router_of_leaf ts leaf)
      ~n
  in
  let attach = Option.get pop.Population.attach in
  let node_latency a b = Latency.node_latency latency attach.(a) attach.(b) in
  let rings = Rings.build pop in
  let overlay = Crescendo.build rings in
  Printf.printf "Overlay: %d nodes, mean degree %.2f\n%!" n (Overlay.mean_degree overlay);

  (* Publish a 300-object catalogue globally. *)
  let root = Domain_tree.root tree in
  let store = Store.create rings in
  let catalogue = 300 in
  let ks = Workload.keyspace (Rng.split rng) ~keys:catalogue in
  for i = 0 to catalogue - 1 do
    Store.insert store ~publisher:(Rng.int_below rng n) ~key:(Workload.key ks i)
      ~value:(Printf.sprintf "object-%03d" i) ~storage_domain:root ~access_domain:root
  done;

  (* Client workload: Zipf popularity + hierarchical locality. *)
  let sampler = Zipf.sampler ~n:catalogue ~alpha:0.9 in
  let queries =
    Workload.local_queries (Rng.split rng) pop ks ~sampler ~locality:0.7 ~count:5000
  in
  let run capacity =
    let cache = Cache.create rings ~capacity in
    let lat = ref 0.0 and hits = ref 0 and answered = ref 0 and hops = ref 0 in
    List.iter
      (fun q ->
        match Cache.query cache store overlay ~querier:q.Workload.querier ~key:q.Workload.key with
        | None -> ()
        | Some r ->
            incr answered;
            if r.Cache.served_from_cache then incr hits;
            hops := !hops + Route.hops r.Cache.path;
            lat := !lat +. Route.latency r.Cache.path ~node_latency)
      queries;
    ( !lat /. Float.of_int (max 1 !answered),
      Float.of_int !hits /. Float.of_int (max 1 !answered),
      Float.of_int !hops /. Float.of_int (max 1 !answered) )
  in
  let lat_off, _, hops_off = run 0 in
  let lat_on, hit_rate, hops_on = run 128 in
  let table =
    Table.create ~title:"CDN workload: caching off vs on (5000 queries, locality 0.7)"
      ~columns:[ "metric"; "off"; "on" ]
  in
  Table.add_row table
    [ "mean latency (ms)"; Printf.sprintf "%.1f" lat_off; Printf.sprintf "%.1f" lat_on ];
  Table.add_row table
    [ "mean hops"; Printf.sprintf "%.2f" hops_off; Printf.sprintf "%.2f" hops_on ];
  Table.add_row table [ "cache hit rate"; "0.00"; Printf.sprintf "%.2f" hit_rate ];
  Table.print table;

  (* Multicast: push one object to 800 subscribers along reversed query
     paths; count expensive inter-domain edges. *)
  let dst = Rng.int_below rng n in
  let routes =
    List.init 800 (fun _ ->
        Router.greedy_clockwise overlay ~src:(Rng.int_below rng n) ~key:(Overlay.id overlay dst))
  in
  let mt = Multicast.of_routes routes in
  Printf.printf "\nMulticast tree to 800 subscribers: %d edges touching %d nodes\n"
    (Multicast.num_edges mt) (Multicast.num_nodes mt);
  List.iter
    (fun level ->
      let crossings =
        Multicast.inter_domain_edges mt ~domain_of_node:(fun node ->
            Population.domain_of_node_at_depth pop node level)
      in
      Printf.printf "  inter-domain edges at hierarchy level %d: %d\n" level crossings)
    [ 1; 2; 3 ];
  Printf.printf "  total tree transmission cost: %.0f ms of link time\n"
    (Multicast.total_latency mt ~node_latency);

  (* The whole example ran against the structural latency oracle: a stub
     domain gets its own distance table only once a query falls inside it. *)
  let st = Latency.stats latency in
  Printf.printf
    "\nLatency oracle: %d/%d intra-domain tables built on demand (%d hits, %d misses)\n"
    st.Latency.rows_computed (Transit_stub.stub_domain_count ts) st.Latency.hits
    st.Latency.misses
