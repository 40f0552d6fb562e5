(* Tests for the SkipNet comparison system (§6). *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng

let fixture =
  lazy
    (let rng = Rng.create 90 in
     let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:5 ~levels:3) in
     let pop = Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n:800 in
     (pop, Skipnet.build pop))

let test_rank_bijection () =
  let pop, sn = Lazy.force fixture in
  for node = 0 to Population.size pop - 1 do
    Alcotest.(check int) "roundtrip" node (Skipnet.node_of_rank sn (Skipnet.name_rank sn node))
  done

let test_name_order_respects_hierarchy () =
  (* Nodes of the same leaf domain occupy contiguous ranks. *)
  let pop, sn = Lazy.force fixture in
  let n = Population.size pop in
  for rank = 1 to n - 1 do
    let a = Skipnet.node_of_rank sn (rank - 1) and b = Skipnet.node_of_rank sn rank in
    if pop.Population.leaf_of_node.(a) > pop.Population.leaf_of_node.(b) then
      Alcotest.fail "name order does not follow hierarchy order"
  done

let test_name_routing_reaches () =
  let pop, sn = Lazy.force fixture in
  let rng = Rng.create 91 in
  let n = Population.size pop in
  for _ = 1 to 300 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Skipnet.route_by_name sn ~src ~dst in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    Alcotest.(check int) "starts at src" src route.Route.nodes.(0)
  done

let test_name_routing_is_monotone_and_local () =
  (* Every intermediate rank lies between the endpoints' ranks, hence
     intra-domain routes never leave the domain. *)
  let pop, sn = Lazy.force fixture in
  let rng = Rng.create 92 in
  let n = Population.size pop in
  for _ = 1 to 300 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Skipnet.route_by_name sn ~src ~dst in
    let lo = min (Skipnet.name_rank sn src) (Skipnet.name_rank sn dst) in
    let hi = max (Skipnet.name_rank sn src) (Skipnet.name_rank sn dst) in
    Array.iter
      (fun node ->
        let r = Skipnet.name_rank sn node in
        if r < lo || r > hi then Alcotest.fail "name route left the rank interval")
      route.Route.nodes
  done

let test_name_routing_hops_logarithmic () =
  let pop, sn = Lazy.force fixture in
  let rng = Rng.create 93 in
  let n = Population.size pop in
  let total = ref 0 in
  for _ = 1 to 500 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    total := !total + Route.hops (Skipnet.route_by_name sn ~src ~dst)
  done;
  let mean = Float.of_int !total /. 500.0 in
  (* ~log2 800 ~ 9.6; generous bound *)
  if mean > 20.0 then Alcotest.failf "skipnet name hops %.1f too high" mean

let test_numeric_routing_terminates_at_best_match_locally () =
  (* The numeric route must end at a node matching the key on at least
     as many bits as every node it passed through. *)
  let pop, sn = Lazy.force fixture in
  let ids = pop.Population.ids in
  let rng = Rng.create 94 in
  for _ = 1 to 200 do
    let src = Rng.int_below rng (Population.size pop) in
    let key = Id.random rng in
    let route = Skipnet.route_by_numeric sn ~src ~key in
    let final = Route.destination route in
    let final_match = Id.common_prefix_bits ids.(final) key in
    Array.iter
      (fun node ->
        if Id.common_prefix_bits ids.(node) key > final_match then
          Alcotest.fail "numeric route passed a better match than its destination")
      route.Route.nodes
  done

let test_degree_logarithmic () =
  let _pop, sn = Lazy.force fixture in
  let deg = Skipnet.mean_degree sn in
  (* ~2 pointers per level over ~log2 n levels, heavily shared. *)
  if deg < 5.0 || deg > 25.0 then Alcotest.failf "skipnet degree %.1f implausible" deg

let test_single_node () =
  let rng = Rng.create 95 in
  let tree = Domain_tree.of_spec Domain_tree.Leaf in
  let pop = Population.create rng ~tree ~policy:Placement.Uniform ~n:1 in
  let sn = Skipnet.build pop in
  let r = Skipnet.route_by_name sn ~src:0 ~dst:0 in
  Alcotest.(check int) "self route" 0 (Route.hops r);
  let rn = Skipnet.route_by_numeric sn ~src:0 ~key:123 in
  Alcotest.(check int) "numeric self" 0 (Route.destination rn)

let suites =
  [
    ( "skipnet",
      [
        Alcotest.test_case "rank bijection" `Quick test_rank_bijection;
        Alcotest.test_case "name order = hierarchy order" `Quick
          test_name_order_respects_hierarchy;
        Alcotest.test_case "name routing reaches" `Quick test_name_routing_reaches;
        Alcotest.test_case "name routing monotone/local" `Quick
          test_name_routing_is_monotone_and_local;
        Alcotest.test_case "name hops logarithmic" `Quick test_name_routing_hops_logarithmic;
        Alcotest.test_case "numeric routing sane" `Quick
          test_numeric_routing_terminates_at_best_match_locally;
        Alcotest.test_case "degree" `Quick test_degree_logarithmic;
        Alcotest.test_case "single node" `Quick test_single_node;
      ] );
  ]
