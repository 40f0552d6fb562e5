(* Tests for multicast trees and workload generators. *)

open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_workload
module Rng = Canon_rng.Rng
module Zipf = Canon_stats.Zipf

let test_multicast_union () =
  let r1 = Route.{ nodes = [| 1; 2; 3 |] } in
  let r2 = Route.{ nodes = [| 4; 2; 3 |] } in
  let t = Multicast.of_routes [ r1; r2 ] in
  (* edges: 1->2, 2->3 (shared), 4->2 *)
  Alcotest.(check int) "edges deduplicated" 3 (Multicast.num_edges t);
  Alcotest.(check int) "nodes" 4 (Multicast.num_nodes t)

let test_multicast_inter_domain () =
  let r1 = Route.{ nodes = [| 0; 1; 2 |] } in
  let t = Multicast.of_routes [ r1 ] in
  let dom = function 0 -> 0 | 1 -> 0 | _ -> 1 in
  Alcotest.(check int) "one crossing" 1 (Multicast.inter_domain_edges t ~domain_of_node:dom);
  Alcotest.(check (float 1e-9)) "latency sum" 2.0
    (Multicast.total_latency t ~node_latency:(fun _ _ -> 1.0))

let test_multicast_convergence_advantage () =
  (* On a real Crescendo network, the multicast tree of many sources
     crosses depth-1 domains far fewer times than the sum of individual
     paths would. *)
  let rng = Rng.create 30 in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:5 ~levels:3) in
  let pop = Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n:1000 in
  let rings = Rings.build pop in
  let overlay = Crescendo.build rings in
  let dst = 17 in
  let routes =
    List.init 200 (fun _ ->
        let src = Rng.int_below rng 1000 in
        Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))
  in
  let t = Multicast.of_routes routes in
  let dom node = Population.domain_of_node_at_depth pop node 1 in
  let tree_crossings = Multicast.inter_domain_edges t ~domain_of_node:dom in
  let path_crossings =
    List.fold_left (fun acc r -> acc + Route.domain_crossings r ~domain_of_node:dom) 0 routes
  in
  Alcotest.(check bool)
    (Printf.sprintf "tree %d << paths %d" tree_crossings path_crossings)
    true
    (tree_crossings * 4 < path_crossings)

let test_keyspace () =
  let rng = Rng.create 31 in
  let ks = Workload.keyspace rng ~keys:100 in
  let seen = Hashtbl.create 128 in
  for i = 0 to 99 do
    let k = Workload.key ks i in
    if Hashtbl.mem seen k then Alcotest.fail "duplicate key";
    Hashtbl.add seen k ()
  done

(* Without locality every query draws a fresh key by Zipfian rank. *)
let test_zipf_key_popularity () =
  let rng = Rng.create 32 in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:4 ~levels:2) in
  let pop = Population.create (Rng.split rng) ~tree ~policy:Placement.Uniform ~n:50 in
  let ks = Workload.keyspace rng ~keys:50 in
  let sampler = Zipf.sampler ~n:50 ~alpha:1.0 in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun q ->
      let k = q.Workload.key in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    (Workload.local_queries rng pop ks ~sampler ~locality:0.0 ~count:20_000);
  let top = Option.value ~default:0 (Hashtbl.find_opt counts (Workload.key ks 0)) in
  let mid = Option.value ~default:0 (Hashtbl.find_opt counts (Workload.key ks 25)) in
  Alcotest.(check bool) "rank 0 much more popular than rank 25" true (top > 5 * max 1 mid)

let test_local_queries_shape () =
  let rng = Rng.create 33 in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:4 ~levels:2) in
  let pop = Population.create (Rng.split rng) ~tree ~policy:Placement.Uniform ~n:200 in
  let ks = Workload.keyspace (Rng.split rng) ~keys:50 in
  let sampler = Zipf.sampler ~n:50 ~alpha:1.0 in
  let queries = Workload.local_queries rng pop ks ~sampler ~locality:0.8 ~count:500 in
  Alcotest.(check int) "count" 500 (List.length queries);
  List.iter
    (fun q ->
      if q.Workload.querier < 0 || q.Workload.querier >= 200 then
        Alcotest.fail "querier out of range")
    queries;
  (* High locality means consecutive same-domain queries repeat keys:
     the number of distinct keys used must be far below the count. *)
  let distinct = Hashtbl.create 64 in
  List.iter (fun q -> Hashtbl.replace distinct q.Workload.key ()) queries;
  Alcotest.(check bool) "keys repeat under locality" true (Hashtbl.length distinct < 300)

let test_local_queries_validation () =
  let rng = Rng.create 34 in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:2 ~levels:2) in
  let pop = Population.create (Rng.split rng) ~tree ~policy:Placement.Uniform ~n:10 in
  let ks = Workload.keyspace (Rng.split rng) ~keys:5 in
  let sampler = Zipf.sampler ~n:5 ~alpha:1.0 in
  Alcotest.(check bool) "bad locality rejected" true
    (try
       ignore (Workload.local_queries rng pop ks ~sampler ~locality:1.5 ~count:1);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "multicast union" `Quick test_multicast_union;
        Alcotest.test_case "multicast inter-domain" `Quick test_multicast_inter_domain;
        Alcotest.test_case "multicast convergence advantage" `Quick
          test_multicast_convergence_advantage;
        Alcotest.test_case "keyspace" `Quick test_keyspace;
        Alcotest.test_case "zipf popularity" `Quick test_zipf_key_popularity;
        Alcotest.test_case "local queries" `Quick test_local_queries_shape;
        Alcotest.test_case "local queries validation" `Quick test_local_queries_validation;
      ] );
  ]
