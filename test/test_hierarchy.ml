(* Tests for domain trees, node placement and hierarchical names. *)

open Canon_hierarchy

let tree_23 =
  (* root with two children; first child has 3 leaves, second has 2 *)
  Domain_tree.of_spec
    (Domain_tree.Node
       [
         Domain_tree.Node [ Domain_tree.Leaf; Domain_tree.Leaf; Domain_tree.Leaf ];
         Domain_tree.Node [ Domain_tree.Leaf; Domain_tree.Leaf ];
       ])

let test_counts () =
  Alcotest.(check int) "domains" 8 (Domain_tree.num_domains tree_23);
  Alcotest.(check int) "leaves" 5 (Domain_tree.num_leaves tree_23);
  Alcotest.(check int) "height" 2 (Domain_tree.height tree_23);
  Alcotest.(check int) "root" 0 (Domain_tree.root tree_23)

let test_structure () =
  let t = tree_23 in
  (* preorder numbering: 0 root; 1 first internal; 2,3,4 its leaves;
     5 second internal; 6,7 its leaves *)
  Alcotest.(check (array int)) "root children" [| 1; 5 |] (Domain_tree.children t 0);
  Alcotest.(check (array int)) "first child leaves" [| 2; 3; 4 |] (Domain_tree.children t 1);
  Alcotest.(check int) "parent of 3" 1 (Domain_tree.parent t 3);
  Alcotest.(check int) "parent of 6" 5 (Domain_tree.parent t 6);
  Alcotest.(check bool) "leaf" true (Domain_tree.is_leaf t 7);
  Alcotest.(check bool) "internal" false (Domain_tree.is_leaf t 5);
  Alcotest.(check (array int)) "all leaves" [| 2; 3; 4; 6; 7 |] (Domain_tree.leaves t);
  Alcotest.(check int) "depth leaf" 2 (Domain_tree.depth t 7);
  Alcotest.check_raises "parent of root" (Invalid_argument "Domain_tree.parent: root has no parent")
    (fun () -> ignore (Domain_tree.parent t 0))

let test_lca () =
  let t = tree_23 in
  Alcotest.(check int) "siblings" 1 (Domain_tree.lca t 2 4);
  Alcotest.(check int) "across" 0 (Domain_tree.lca t 2 6);
  Alcotest.(check int) "self" 3 (Domain_tree.lca t 3 3);
  Alcotest.(check int) "ancestor-descendant" 1 (Domain_tree.lca t 1 4)

let test_ancestors () =
  let t = tree_23 in
  Alcotest.(check int) "at depth 0" 0 (Domain_tree.ancestor_at_depth t 7 0);
  Alcotest.(check int) "at depth 1" 5 (Domain_tree.ancestor_at_depth t 7 1);
  Alcotest.(check int) "at own depth" 7 (Domain_tree.ancestor_at_depth t 7 2);
  Alcotest.(check bool) "ancestor" true (Domain_tree.is_ancestor t ~anc:1 ~desc:4);
  Alcotest.(check bool) "reflexive" true (Domain_tree.is_ancestor t ~anc:4 ~desc:4);
  Alcotest.(check bool) "not ancestor" false (Domain_tree.is_ancestor t ~anc:5 ~desc:4)

let test_subtree_leaves () =
  let t = tree_23 in
  Alcotest.(check (array int)) "subtree 1" [| 2; 3; 4 |] (Domain_tree.subtree_leaves t 1);
  Alcotest.(check (array int)) "subtree of leaf" [| 6 |] (Domain_tree.subtree_leaves t 6);
  Alcotest.(check (array int)) "root subtree" (Domain_tree.leaves t) (Domain_tree.subtree_leaves t 0)

let test_uniform_spec () =
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:3 ~levels:3) in
  (* 1 + 3 + 9 = 13 domains, 9 leaves, height 2 *)
  Alcotest.(check int) "domains" 13 (Domain_tree.num_domains t);
  Alcotest.(check int) "leaves" 9 (Domain_tree.num_leaves t);
  Alcotest.(check int) "height" 2 (Domain_tree.height t);
  let flat = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:10 ~levels:1) in
  Alcotest.(check int) "flat is single leaf domain" 1 (Domain_tree.num_domains flat);
  Alcotest.(check bool) "flat root is leaf" true (Domain_tree.is_leaf flat 0)

let test_invalid_specs () =
  Alcotest.check_raises "empty node" (Invalid_argument "Domain_tree.of_spec: Node with no children")
    (fun () -> ignore (Domain_tree.of_spec (Domain_tree.Node [])));
  Alcotest.check_raises "fanout" (Invalid_argument "Domain_tree.uniform_spec: fanout < 1")
    (fun () -> ignore (Domain_tree.uniform_spec ~fanout:0 ~levels:2));
  Alcotest.check_raises "levels" (Invalid_argument "Domain_tree.uniform_spec: levels < 1")
    (fun () -> ignore (Domain_tree.uniform_spec ~fanout:2 ~levels:0))

let test_placement_uniform () =
  let rng = Canon_rng.Rng.create 7 in
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:4 ~levels:2) in
  let n = 8000 in
  let assignment = Placement.assign rng t Placement.Uniform ~n in
  Alcotest.(check int) "size" n (Array.length assignment);
  let leaves = Domain_tree.leaves t in
  Array.iter
    (fun leaf ->
      if not (Array.exists (Int.equal leaf) leaves) then Alcotest.fail "not a leaf")
    assignment;
  let pop = Placement.leaf_population t assignment in
  Alcotest.(check int) "root population" n pop.(Domain_tree.root t);
  Array.iter
    (fun leaf ->
      let c = pop.(leaf) in
      if abs (c - (n / 4)) > n / 8 then Alcotest.failf "leaf %d population %d too skewed" leaf c)
    leaves

let test_placement_zipf () =
  let rng = Canon_rng.Rng.create 11 in
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:10 ~levels:2) in
  let n = 10_000 in
  let assignment = Placement.assign rng t (Placement.Zipfian 1.25) ~n in
  let pop = Placement.leaf_population t assignment in
  let leaf_counts = Array.map (fun l -> pop.(l)) (Domain_tree.leaves t) in
  Alcotest.(check int) "total" n (Array.fold_left ( + ) 0 leaf_counts);
  let sorted = Array.copy leaf_counts in
  Array.sort (fun a b -> Int.compare b a) sorted;
  (* Zipf(1.25) over 10 branches: largest branch ~ 33%, clearly bigger
     than the uniform 10%. *)
  Alcotest.(check bool) "skewed" true (sorted.(0) > n / 5);
  Alcotest.(check bool) "smallest non-trivial" true (sorted.(9) < n / 10)

let test_placement_zero_nodes () =
  let rng = Canon_rng.Rng.create 1 in
  let t = tree_23 in
  Alcotest.(check int) "empty uniform" 0
    (Array.length (Placement.assign rng t Placement.Uniform ~n:0));
  Alcotest.(check int) "empty zipf" 0
    (Array.length (Placement.assign rng t (Placement.Zipfian 1.25) ~n:0))

let test_placement_zipf_deeper () =
  (* Zipf apportionment must recurse: population of an internal domain
     equals the sum over its children at every level. *)
  let rng = Canon_rng.Rng.create 13 in
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:3 ~levels:3) in
  let assignment = Placement.assign rng t (Placement.Zipfian 1.25) ~n:5000 in
  let pop = Placement.leaf_population t assignment in
  for d = 0 to Domain_tree.num_domains t - 1 do
    if not (Domain_tree.is_leaf t d) then begin
      let kids = Domain_tree.children t d in
      let sum = Array.fold_left (fun acc k -> acc + pop.(k)) 0 kids in
      Alcotest.(check int) "internal = sum of children" pop.(d) sum
    end
  done

let test_hname_parsing () =
  Alcotest.(check (list string)) "parse" [ "stanford"; "cs"; "db" ]
    (Hname.of_string "db.cs.stanford");
  Alcotest.(check (list string)) "root" [] (Hname.of_string "")

let test_namespace () =
  let ns =
    Hname.namespace_of_leaves
      [
        Hname.of_string "db.cs.stanford";
        Hname.of_string "ai.cs.stanford";
        Hname.of_string "ee.stanford";
        Hname.of_string "cs.washington";
      ]
  in
  let t = Hname.tree ns in
  Alcotest.(check int) "leaves" 4 (Domain_tree.num_leaves t);
  let db = Hname.domain_of_name ns (Hname.of_string "db.cs.stanford") in
  let ai = Hname.domain_of_name ns (Hname.of_string "ai.cs.stanford") in
  let ee = Hname.domain_of_name ns (Hname.of_string "ee.stanford") in
  let cs = Hname.domain_of_name ns (Hname.of_string "cs.stanford") in
  Alcotest.(check int) "siblings lca" cs (Domain_tree.lca t db ai);
  Alcotest.(check int) "cousins lca"
    (Hname.domain_of_name ns (Hname.of_string "stanford"))
    (Domain_tree.lca t db ee);
  Alcotest.(check int) "root domain" 0 (Hname.domain_of_name ns [])

let test_namespace_invalid () =
  Alcotest.(check bool) "prefix leaf rejected" true
    (try
       ignore
         (Hname.namespace_of_leaves [ Hname.of_string "cs.stanford"; Hname.of_string "db.cs.stanford" ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Hname.namespace_of_leaves []);
       false
     with Invalid_argument _ -> true)

let prop_lca_commutes =
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:3 ~levels:4) in
  let n = Domain_tree.num_domains t in
  QCheck.Test.make ~count:1000 ~name:"lca commutes and is ancestor of both"
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    (fun (a, b) ->
      let l = Domain_tree.lca t a b in
      l = Domain_tree.lca t b a
      && Domain_tree.is_ancestor t ~anc:l ~desc:a
      && Domain_tree.is_ancestor t ~anc:l ~desc:b)

let prop_lca_deepest =
  let t = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:2 ~levels:5) in
  let n = Domain_tree.num_domains t in
  QCheck.Test.make ~count:1000 ~name:"no deeper common ancestor than lca"
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    (fun (a, b) ->
      let l = Domain_tree.lca t a b in
      (* every common ancestor is an ancestor of the lca *)
      let rec check d =
        let ok =
          if Domain_tree.is_ancestor t ~anc:d ~desc:b then Domain_tree.is_ancestor t ~anc:d ~desc:l
          else true
        in
        if d = 0 then ok else ok && check (Domain_tree.parent t d)
      in
      check a)

let suites =
  [
    ( "hierarchy",
      [
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "structure" `Quick test_structure;
        Alcotest.test_case "lca" `Quick test_lca;
        Alcotest.test_case "ancestors" `Quick test_ancestors;
        Alcotest.test_case "subtree leaves" `Quick test_subtree_leaves;
        Alcotest.test_case "uniform spec" `Quick test_uniform_spec;
        Alcotest.test_case "invalid specs" `Quick test_invalid_specs;
        Alcotest.test_case "placement uniform" `Quick test_placement_uniform;
        Alcotest.test_case "placement zipf" `Quick test_placement_zipf;
        Alcotest.test_case "placement zero nodes" `Quick test_placement_zero_nodes;
        Alcotest.test_case "placement zipf deeper" `Quick test_placement_zipf_deeper;
        Alcotest.test_case "hname parsing" `Quick test_hname_parsing;
        Alcotest.test_case "namespace" `Quick test_namespace;
        Alcotest.test_case "namespace invalid" `Quick test_namespace_invalid;
        QCheck_alcotest.to_alcotest prop_lca_commutes;
        QCheck_alcotest.to_alcotest prop_lca_deepest;
      ] );
  ]
