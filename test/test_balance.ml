(* Tests for partition-balanced identifier selection (§4.3). *)

open Canon_idspace
open Canon_hierarchy
open Canon_balance
module Rng = Canon_rng.Rng

let leaf_assignment ~n seed =
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:5 ~levels:3) in
  let rng = Rng.create seed in
  (tree, Placement.assign rng tree (Placement.Zipfian 1.25) ~n)

(* A node's partition is the clockwise arc to the next id, the last one
   wrapping around to the first. *)
let test_partition_ratio () =
  let q = Id.space / 4 in
  Alcotest.(check (float 1e-9)) "arcs q and 3q" 3.0 (Balance.partition_ratio [| q; 0 |]);
  Alcotest.(check (float 1e-9)) "wrapping arcs" 1.0 (Balance.partition_ratio [| 3 * q; q |]);
  Alcotest.(check (float 1e-9)) "three arcs" 2.0 (Balance.partition_ratio [| 0; q; 2 * q |])

let test_partition_ratio_edge_cases () =
  Alcotest.(check bool) "ratio nan for single" true (Float.is_nan (Balance.partition_ratio [| 42 |]));
  Alcotest.(check bool) "ratio nan for empty" true (Float.is_nan (Balance.partition_ratio [||]));
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Balance.partition_ratio: duplicate ids")
    (fun () -> ignore (Balance.partition_ratio [| 7; 9; 7 |]))

let test_all_schemes_give_unique_ids () =
  let _tree, leaf_of_node = leaf_assignment ~n:500 2 in
  List.iter
    (fun scheme ->
      let ids = Balance.select_ids (Rng.create 3) scheme ~leaf_of_node in
      let set = Hashtbl.create 512 in
      Array.iter
        (fun id ->
          if Hashtbl.mem set id then Alcotest.fail "duplicate id";
          if id < 0 || id >= Id.space then Alcotest.fail "id out of space";
          Hashtbl.add set id ())
        ids;
      Alcotest.(check int) "count" 500 (Array.length ids))
    [ Balance.Random_ids; Balance.Bisection; Balance.Hierarchical ]

let test_bisection_beats_random () =
  let _tree, leaf_of_node = leaf_assignment ~n:2048 4 in
  let random = Balance.partition_ratio (Balance.select_ids (Rng.create 5) Balance.Random_ids ~leaf_of_node) in
  let bisect = Balance.partition_ratio (Balance.select_ids (Rng.create 5) Balance.Bisection ~leaf_of_node) in
  Alcotest.(check bool)
    (Printf.sprintf "bisection %.1f << random %.1f" bisect random)
    true
    (bisect < random /. 10.0);
  (* The paper proves a constant ratio (4 w.h.p.); allow implementation
     slack but demand a small constant. *)
  Alcotest.(check bool) "bisection ratio small" true (bisect <= 16.0)

let test_hierarchical_balances_domains () =
  let tree, leaf_of_node = leaf_assignment ~n:2048 6 in
  let members_of domain ids =
    ignore ids;
    Array.to_list leaf_of_node
    |> List.mapi (fun node leaf -> (node, leaf))
    |> List.filter (fun (_, leaf) -> Domain_tree.is_ancestor tree ~anc:domain ~desc:leaf)
    |> List.map fst |> Array.of_list
  in
  let mean_domain_ratio ids =
    let kids = Domain_tree.children tree (Domain_tree.root tree) in
    let rs =
      Array.to_list kids
      |> List.filter_map (fun d ->
             let m = members_of d ids in
             if Array.length m >= 2 then Some (Balance.domain_partition_ratio ids ~members:m) else None)
    in
    List.fold_left ( +. ) 0.0 rs /. Float.of_int (List.length rs)
  in
  let random_ids = Balance.select_ids (Rng.create 7) Balance.Random_ids ~leaf_of_node in
  let hier_ids = Balance.select_ids (Rng.create 7) Balance.Hierarchical ~leaf_of_node in
  let r_random = mean_domain_ratio random_ids in
  let r_hier = mean_domain_ratio hier_ids in
  Alcotest.(check bool)
    (Printf.sprintf "hierarchical %.1f << random %.1f at domain level" r_hier r_random)
    true (r_hier < r_random /. 4.0)

let test_hierarchical_first_nodes_random () =
  (* With one node per leaf there is nothing to bisect; ids must still
     be valid and unique. *)
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:3 ~levels:2) in
  let leaf_of_node = Domain_tree.leaves tree in
  let ids = Balance.select_ids (Rng.create 8) Balance.Hierarchical ~leaf_of_node in
  Alcotest.(check int) "one per leaf" (Array.length leaf_of_node) (Array.length ids)

let prop_partition_ratio_ge_one =
  QCheck.Test.make ~count:200 ~name:"partition ratio >= 1"
    QCheck.(int_range 2 64)
    (fun n ->
      let rng = Rng.create (n * 31) in
      let ids = Canon_overlay.Population.unique_ids rng n in
      Balance.partition_ratio ids >= 1.0)

let suites =
  [
    ( "balance",
      [
        Alcotest.test_case "partition ratio" `Quick test_partition_ratio;
        Alcotest.test_case "edge cases" `Quick test_partition_ratio_edge_cases;
        Alcotest.test_case "unique ids per scheme" `Quick test_all_schemes_give_unique_ids;
        Alcotest.test_case "bisection beats random" `Quick test_bisection_beats_random;
        Alcotest.test_case "hierarchical balances domains" `Quick test_hierarchical_balances_domains;
        Alcotest.test_case "one node per leaf" `Quick test_hierarchical_first_nodes_random;
        QCheck_alcotest.to_alcotest prop_partition_ratio_ge_one;
      ] );
  ]
