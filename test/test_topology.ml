(* Tests for the graph substrate and the transit-stub topology. *)

open Canon_topology
module Rng = Canon_rng.Rng

let test_graph_basics () =
  let g = Graph.create 4 in
  Alcotest.(check int) "vertices" 4 (Graph.num_vertices g);
  Graph.add_edge g 0 1 5.0;
  Graph.add_edge g 1 2 7.0;
  Alcotest.(check bool) "has edge" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "symmetric" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "absent" false (Graph.has_edge g 0 2)

let test_graph_invalid () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      Graph.add_edge g 1 1 1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      Graph.add_edge g 1 0 2.0);
  Alcotest.check_raises "bad weight" (Invalid_argument "Graph.add_edge: non-positive weight")
    (fun () -> Graph.add_edge g 1 2 0.0);
  Alcotest.check_raises "empty graph" (Invalid_argument "Graph.create: need at least one vertex")
    (fun () -> ignore (Graph.create 0))

let test_dijkstra_line () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 2.0;
  Graph.add_edge g 2 3 3.0;
  let d = Graph.dijkstra g 0 in
  Alcotest.(check (array (float 1e-9))) "line distances" [| 0.0; 1.0; 3.0; 6.0 |] d

let test_dijkstra_shortcut () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 10.0;
  Graph.add_edge g 0 2 1.0;
  Graph.add_edge g 2 1 1.0;
  let d = Graph.dijkstra g 0 in
  Alcotest.(check (float 1e-9)) "takes shortcut" 2.0 d.(1)

let test_dijkstra_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  let d = Graph.dijkstra g 0 in
  Alcotest.(check bool) "unreachable" true (d.(2) = infinity);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g)

(* Distances inside a block of vertices ignore every path that leaves
   it: the block {0, 1, 2} cannot use the shortcut 0 - 3 - 2. *)
let test_dijkstra_within () =
  let g = Graph.create 6 in
  List.iter
    (fun (u, v, w) -> Graph.add_edge g u v w)
    [ (0, 1, 5.0); (1, 2, 5.0); (0, 3, 1.0); (3, 2, 1.0); (3, 4, 2.0); (4, 5, 2.0); (2, 5, 10.0) ];
  Alcotest.(check (array (float 1e-9))) "whole graph" [| 0.0; 5.0; 2.0; 1.0; 3.0; 5.0 |]
    (Graph.dijkstra g 0);
  Alcotest.(check (array (float 1e-9))) "block {0, 1, 2}" [| 0.0; 5.0; 10.0 |]
    (Graph.dijkstra_within g ~first:0 ~count:3 0);
  Alcotest.(check (array (float 1e-9))) "block {3, 4, 5}, indexed from first" [| 2.0; 0.0; 2.0 |]
    (Graph.dijkstra_within g ~first:3 ~count:3 4);
  Alcotest.(check (array (float 1e-9))) "block {1, 2}: 0 is out of reach" [| 0.0; 5.0 |]
    (Graph.dijkstra_within g ~first:1 ~count:2 1);
  let rejects what ~first ~count src =
    Alcotest.check_raises what
      (Invalid_argument "Graph.dijkstra: source or vertex range out of bounds") (fun () ->
        ignore (Graph.dijkstra_within g ~first ~count src))
  in
  rejects "source outside the block" ~first:3 ~count:3 0;
  rejects "empty block" ~first:2 ~count:0 2;
  rejects "block past the last vertex" ~first:4 ~count:3 4;
  rejects "negative first" ~first:(-1) ~count:3 0

let prop_dijkstra_triangle =
  QCheck.Test.make ~count:50 ~name:"dijkstra satisfies triangle inequality"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 8 + Rng.int_below rng 12 in
      let g = Graph.create n in
      (* random connected graph: ring + chords *)
      for i = 0 to n - 1 do
        Graph.add_edge g i ((i + 1) mod n) (1.0 +. Rng.float rng)
      done;
      for _ = 1 to n do
        let a = Rng.int_below rng n and b = Rng.int_below rng n in
        if a <> b && not (Graph.has_edge g a b) then
          Graph.add_edge g a b (1.0 +. (10.0 *. Rng.float rng))
      done;
      let dist = Array.init n (fun v -> Graph.dijkstra g v) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if dist.(a).(b) > dist.(a).(c) +. dist.(c).(b) +. 1e-9 then ok := false
          done;
          if Float.abs (dist.(a).(b) -. dist.(b).(a)) > 1e-9 then ok := false
        done
      done;
      !ok)

let ts_fixture = lazy (Transit_stub.generate (Rng.create 5) Transit_stub.default_params)

let test_transit_stub_shape () =
  let ts = Lazy.force ts_fixture in
  Alcotest.(check int) "2040 routers" 2040 (Transit_stub.num_routers ts);
  Alcotest.(check int) "40 transit" 40 (Transit_stub.transit_count ts);
  Alcotest.(check int) "2000 stubs" 2000 (Array.length (Transit_stub.stub_routers ts));
  Alcotest.(check bool) "connected" true (Graph.is_connected (Transit_stub.graph ts))

let test_transit_stub_hierarchy () =
  let ts = Lazy.force ts_fixture in
  let tree = Transit_stub.hierarchy ts in
  let module D = Canon_hierarchy.Domain_tree in
  Alcotest.(check int) "2000 leaves" 2000 (D.num_leaves tree);
  Alcotest.(check int) "height 4" 4 (D.height tree);
  (* the leaves map one to one onto the stub routers *)
  Alcotest.(check (array int)) "leaves -> stub routers" (Transit_stub.stub_routers ts)
    (Array.map (Transit_stub.stub_router_of_leaf ts) (D.leaves tree))

let test_latency_classes () =
  let ts = Lazy.force ts_fixture in
  let lat = Latency.create ts in
  let stubs = Transit_stub.stub_routers ts in
  (* same stub router: just the two access links *)
  Alcotest.(check (float 1e-9)) "same stub" 2.0 (Latency.node_latency lat stubs.(0) stubs.(0));
  (* node latencies are symmetric and positive *)
  let rng = Rng.create 17 in
  for _ = 1 to 200 do
    let a = Rng.pick rng stubs and b = Rng.pick rng stubs in
    let l1 = Latency.node_latency lat a b and l2 = Latency.node_latency lat b a in
    Alcotest.(check (float 1e-6)) "symmetric" l1 l2;
    if l1 < 2.0 then Alcotest.fail "latency below access floor"
  done;
  (* stub routers within one stub domain are close (at most a few 5 ms
     hops plus access links) *)
  let same_domain_max = ref 0.0 in
  let params = Transit_stub.params ts in
  let per_domain = params.Transit_stub.stub_routers_per_domain in
  for i = 0 to per_domain - 1 do
    let l = Latency.node_latency lat stubs.(0) stubs.(i) in
    if l > !same_domain_max then same_domain_max := l
  done;
  Alcotest.(check bool) "same stub domain cheap" true
    (!same_domain_max <= 2.0 +. (5.0 *. Float.of_int per_domain));
  (* mean latency across the whole internet is dominated by transit links *)
  let mean = Latency.mean_node_latency lat (Rng.create 23) ~samples:2000 in
  Alcotest.(check bool) "mean in plausible band" true (mean > 100.0 && mean < 1500.0)

(* The exactness premise of the structural oracle: exactly one edge
   leaves every stub domain, from its recorded gateway to its transit
   node, and domain membership matches the vertex ranges. *)
let test_stub_domain_single_exit () =
  let ts = Lazy.force ts_fixture in
  let g = Transit_stub.graph ts in
  Alcotest.(check int) "200 stub domains" 200 (Transit_stub.stub_domain_count ts);
  for d = 0 to Transit_stub.stub_domain_count ts - 1 do
    let first, count = Transit_stub.stub_domain_routers ts d in
    let tn = Transit_stub.domain_transit_node ts d in
    if tn < 0 || tn >= Transit_stub.transit_count ts then
      Alcotest.failf "domain %d: transit node %d is not a transit vertex" d tn;
    let exits = ref [] in
    for v = first to first + count - 1 do
      Alcotest.(check int) "router's domain" d (Transit_stub.stub_domain ts v);
      Array.iter
        (fun (u, w) -> if u < first || u >= first + count then exits := (v, u, w) :: !exits)
        (Graph.neighbors g v)
    done;
    match !exits with
    | [ (v, u, w) ] ->
        Alcotest.(check int) "exit starts at the gateway" (Transit_stub.gateway ts d) v;
        Alcotest.(check int) "exit ends at the transit node" tn u;
        Alcotest.(check (float 0.0)) "transit-stub weight" 20.0 w
    | l -> Alcotest.failf "domain %d has %d outgoing edges" d (List.length l)
  done;
  Alcotest.check_raises "transit vertex has no stub domain"
    (Invalid_argument "Transit_stub.stub_domain: not a stub router") (fun () ->
      ignore (Transit_stub.stub_domain ts 0))

(* Sampled exactness at the scale the benchmarks use: the default
   transit skeleton with 15-router stub domains (3040 routers). Every
   destination of 40 random sources must match Dijkstra bit for bit. *)
let test_structural_matches_dijkstra_3040 () =
  let params =
    { Transit_stub.default_params with Transit_stub.stub_routers_per_domain = 15 }
  in
  let ts = Transit_stub.generate (Rng.create 19) params in
  let n = Transit_stub.num_routers ts in
  Alcotest.(check int) "3040 routers" 3040 n;
  let lat = Latency.create ts in
  let rng = Rng.create 41 in
  for _ = 1 to 40 do
    let a = Rng.int_below rng n in
    Array.iteri
      (fun b d ->
        if not (Float.equal (Latency.router_latency lat a b) d) then
          Alcotest.failf "oracle %g <> Dijkstra %g at (%d, %d)"
            (Latency.router_latency lat a b) d a b)
      (Graph.dijkstra (Transit_stub.graph ts) a)
  done

(* Intra-domain tables are the oracle's only lazy state: none exists
   after [create], the first query with both ends in one stub domain
   builds exactly one, and every other query is a hit. *)
let test_intra_tables_lazy () =
  let ts = Lazy.force ts_fixture in
  let lat = Latency.create ts in
  let stats () = Latency.stats lat in
  Alcotest.(check int) "no table at create" 0 (stats ()).Latency.rows_computed;
  let first, count = Transit_stub.stub_domain_routers ts 7 in
  let other, _ = Transit_stub.stub_domain_routers ts 8 in
  ignore (Latency.router_latency lat first other);
  ignore (Latency.router_latency lat 0 first);
  Alcotest.(check int) "cross-domain builds none" 0 (stats ()).Latency.rows_computed;
  ignore (Latency.router_latency lat first (first + count - 1));
  Alcotest.(check int) "same-domain builds one" 1 (stats ()).Latency.rows_computed;
  ignore (Latency.node_latency lat (first + 1) first);
  let st = stats () in
  Alcotest.(check int) "reuse builds none" 1 st.Latency.rows_computed;
  Alcotest.(check int) "one miss" 1 st.Latency.misses;
  Alcotest.(check int) "three hits" 3 st.Latency.hits

(* On a two-stub topology every sampled pair must be the distinct one,
   so the estimate is exactly that pair's latency — the old sampler drew
   a = b half the time and dragged the mean toward 2 ms. *)
let test_mean_node_latency_distinct_pairs () =
  let params =
    {
      Transit_stub.default_params with
      Transit_stub.transit_domains = 1;
      transit_nodes_per_domain = 1;
      stub_domains_per_transit_node = 1;
      stub_routers_per_domain = 2;
    }
  in
  let ts = Transit_stub.generate (Rng.create 3) params in
  let lat = Latency.create ts in
  let stubs = Transit_stub.stub_routers ts in
  let pair = Latency.node_latency lat stubs.(0) stubs.(1) in
  Alcotest.(check bool) "distinct pair above access floor" true (pair > 2.0);
  let mean = Latency.mean_node_latency lat (Rng.create 29) ~samples:500 in
  Alcotest.(check (float 1e-9)) "mean = the one distinct pair" pair mean

let test_mean_node_latency_single_stub () =
  let params =
    {
      Transit_stub.default_params with
      Transit_stub.transit_domains = 1;
      transit_nodes_per_domain = 1;
      stub_domains_per_transit_node = 1;
      stub_routers_per_domain = 1;
    }
  in
  let ts = Transit_stub.generate (Rng.create 3) params in
  let lat = Latency.create ts in
  let mean = Latency.mean_node_latency lat (Rng.create 31) ~samples:100 in
  Alcotest.(check (float 1e-9)) "degenerate single stub = 2 x access" 2.0 mean

(* Large-n setup smoke (the CI budget guard): create at ~16k routers
   builds no intra-domain table, and 1000 lookups build at most one
   each. *)
let test_lazy_large_n_smoke () =
  let params =
    { Transit_stub.default_params with Transit_stub.stub_routers_per_domain = 82 }
  in
  let t0 = Sys.time () in
  let ts = Transit_stub.generate (Rng.create 13) params in
  let lat = Latency.create ts in
  Alcotest.(check bool) "16k+ routers" true (Transit_stub.num_routers ts > 16384);
  Alcotest.(check int) "no table at create" 0 (Latency.stats lat).Latency.rows_computed;
  let stubs = Transit_stub.stub_routers ts in
  let rng = Rng.create 37 in
  for _ = 1 to 1000 do
    let a = Rng.pick rng stubs and b = Rng.pick rng stubs in
    let l = Latency.node_latency lat a b in
    if l < 2.0 then Alcotest.fail "latency below access floor"
  done;
  let st = Latency.stats lat in
  Alcotest.(check bool) "at most one table per lookup" true (st.Latency.rows_computed <= 1000);
  Alcotest.(check bool) "setup + 1k lookups within budget" true (Sys.time () -. t0 < 60.0)

let test_custom_params () =
  let params =
    {
      Transit_stub.default_params with
      Transit_stub.transit_domains = 2;
      transit_nodes_per_domain = 2;
      stub_domains_per_transit_node = 2;
      stub_routers_per_domain = 3;
    }
  in
  let ts = Transit_stub.generate (Rng.create 7) params in
  Alcotest.(check int) "routers" (4 + 24) (Transit_stub.num_routers ts);
  Alcotest.(check bool) "connected" true (Graph.is_connected (Transit_stub.graph ts))

let suites =
  [
    ( "topology",
      [
        Alcotest.test_case "graph basics" `Quick test_graph_basics;
        Alcotest.test_case "graph invalid" `Quick test_graph_invalid;
        Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
        Alcotest.test_case "dijkstra shortcut" `Quick test_dijkstra_shortcut;
        Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "dijkstra within a block" `Quick test_dijkstra_within;
        QCheck_alcotest.to_alcotest prop_dijkstra_triangle;
        Alcotest.test_case "transit-stub shape" `Quick test_transit_stub_shape;
        Alcotest.test_case "transit-stub hierarchy" `Quick test_transit_stub_hierarchy;
        Alcotest.test_case "latency classes" `Slow test_latency_classes;
        Alcotest.test_case "stub domains have one exit edge" `Quick test_stub_domain_single_exit;
        Alcotest.test_case "oracle = Dijkstra at 3040 routers" `Quick
          test_structural_matches_dijkstra_3040;
        Alcotest.test_case "intra-domain tables built lazily" `Quick test_intra_tables_lazy;
        Alcotest.test_case "mean latency excludes self-pairs" `Quick
          test_mean_node_latency_distinct_pairs;
        Alcotest.test_case "mean latency single-stub degenerate" `Quick
          test_mean_node_latency_single_stub;
        Alcotest.test_case "lazy oracle 16k-router smoke" `Slow test_lazy_large_n_smoke;
        Alcotest.test_case "custom params" `Quick test_custom_params;
      ] );
  ]
