(* Tests for the extension systems: Pastry, the literal prefix-tree CAN,
   the §3.5 hybrid structure, and failure-aware routing. *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng

let make_pop ?(policy = Placement.Zipfian 1.25) ~seed ~fanout ~levels ~n () =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout ~levels) in
  Population.create rng ~tree ~policy ~n

(* --- Pastry -------------------------------------------------------- *)

let test_pastry_constants () =
  Alcotest.(check int) "digit bits" 4 Pastry.digit_bits;
  Alcotest.(check int) "digits" 8 Pastry.digits

let test_pastry_reaches () =
  let pop = make_pop ~seed:40 ~fanout:10 ~levels:1 ~n:1024 () in
  let ov = Pastry.build (Rng.create 41) pop in
  let rng = Rng.create 42 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Router.greedy_xor ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_pastry_cell_structure () =
  (* Every link of node m must occupy a distinct routing cell: same
     digit prefix as m up to some l, different digit at l. *)
  let pop = make_pop ~seed:43 ~fanout:10 ~levels:1 ~n:400 () in
  let ov = Pastry.build (Rng.create 44) pop in
  let ids = pop.Population.ids in
  let digit id l = (id lsr (Id.bits - ((l + 1) * Pastry.digit_bits))) land 0xF in
  for node = 0 to 399 do
    let cells = Hashtbl.create 32 in
    Array.iter
      (fun v ->
        let l =
          let rec go l = if digit ids.(node) l <> digit ids.(v) l then l else go (l + 1) in
          go 0
        in
        let cell = (l, digit ids.(v) l) in
        if Hashtbl.mem cells cell then Alcotest.fail "two links in one routing cell";
        Hashtbl.add cells cell ())
      (Overlay.links ov node)
  done

let test_pastry_cell_completeness () =
  (* For every non-empty cell of the network, the node has a link. *)
  let pop = make_pop ~seed:45 ~fanout:10 ~levels:1 ~n:300 () in
  let ov = Pastry.build (Rng.create 46) pop in
  let ids = pop.Population.ids in
  let digit id l = (id lsr (Id.bits - ((l + 1) * Pastry.digit_bits))) land 0xF in
  let prefix_digits a b =
    let rec go l = if l = Pastry.digits || digit a l <> digit b l then l else go (l + 1) in
    go 0
  in
  for node = 0 to 299 do
    let covered = Hashtbl.create 32 in
    Array.iter
      (fun v ->
        let l = prefix_digits ids.(node) ids.(v) in
        Hashtbl.replace covered (l, digit ids.(v) l) ())
      (Overlay.links ov node);
    for other = 0 to 299 do
      if other <> node then begin
        let l = prefix_digits ids.(node) ids.(other) in
        if not (Hashtbl.mem covered (l, digit ids.(other) l)) then
          Alcotest.failf "node %d misses non-empty cell (%d, %d)" node l
            (digit ids.(other) l)
      end
    done
  done

let test_canonical_pastry_reaches_and_locality () =
  let pop = make_pop ~seed:47 ~fanout:5 ~levels:3 ~n:1000 () in
  let rings = Rings.build pop in
  let ov = Pastry.build_canonical (Rng.create 48) rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 49 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1000 and dst = Rng.int_below rng 1000 in
    let route = Router.greedy_xor ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    let lca = Population.lca_of_nodes pop src dst in
    Array.iter
      (fun node ->
        if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
        then Alcotest.failf "canonical pastry route %d->%d escapes its domain" src dst)
      route.Route.nodes
  done

let test_pastry_degree () =
  let pop = make_pop ~seed:50 ~fanout:10 ~levels:1 ~n:2048 () in
  let ov = Pastry.build (Rng.create 51) pop in
  (* ~log_16(n) populated rows of <= 15 entries: mean well under 60. *)
  let mean = Overlay.mean_degree ov in
  if mean < 15.0 || mean > 60.0 then Alcotest.failf "pastry degree %.1f implausible" mean

(* --- Prefix CAN ---------------------------------------------------- *)

let test_prefix_can_structure () =
  let pc = Prefix_can.build (Rng.create 52) ~n:100 in
  (* balanced bisection: depths are ceil(log2 100) = 7 (or 6 for the
     shallow side) *)
  Alcotest.(check int) "depth" 7 (Prefix_can.depth pc);
  for node = 0 to 99 do
    let _, len = Prefix_can.prefix_of pc node in
    if len < 6 || len > 7 then Alcotest.failf "node %d has prefix length %d" node len
  done

let test_prefix_can_prefixes_partition_space () =
  (* Every key has exactly one owner, and the owner's prefix matches. *)
  let pc = Prefix_can.build (Rng.create 53) ~n:37 in
  let depth = Prefix_can.depth pc in
  let rng = Rng.create 54 in
  for _ = 1 to 2000 do
    let key = Rng.int_below rng (1 lsl depth) in
    let owner = Prefix_can.owner pc key in
    let bits, len = Prefix_can.prefix_of pc owner in
    Alcotest.(check int) "owner prefix matches key" bits (key lsr (depth - len))
  done

let test_prefix_can_edges_are_hypercube () =
  (* Each edge must connect prefixes with padded representatives that
     differ in exactly one bit: equivalently the prefixes, truncated to
     the shorter length, differ in exactly one bit. *)
  let pc = Prefix_can.build (Rng.create 55) ~n:64 in
  for u = 0 to 63 do
    let bu, lu = Prefix_can.prefix_of pc u in
    Array.iter
      (fun v ->
        let bv, lv = Prefix_can.prefix_of pc v in
        let l = min lu lv in
        let tu = bu lsr (lu - l) and tv = bv lsr (lv - l) in
        let diff = tu lxor tv in
        if diff = 0 || diff land (diff - 1) <> 0 then
          Alcotest.failf "edge %d-%d is not a hypercube edge" u v)
      (Prefix_can.neighbors pc u)
  done

let test_prefix_can_routing () =
  let pc = Prefix_can.build (Rng.create 56) ~n:500 in
  let depth = Prefix_can.depth pc in
  let rng = Rng.create 57 in
  for _ = 1 to 500 do
    let src = Rng.int_below rng 500 in
    let key = Rng.int_below rng (1 lsl depth) in
    Alcotest.(check int) "ends at owner" (Prefix_can.owner pc key)
      (Route.destination (Prefix_can.route pc ~src ~key))
  done

let test_prefix_can_route_hops_logarithmic () =
  let pc = Prefix_can.build (Rng.create 58) ~n:1024 in
  let rng = Rng.create 59 in
  let total = ref 0 in
  for _ = 1 to 500 do
    let src = Rng.int_below rng 1024 in
    let key = Rng.int_below rng (1 lsl Prefix_can.depth pc) in
    total := !total + Route.hops (Prefix_can.route pc ~src ~key)
  done;
  let mean = Float.of_int !total /. 500.0 in
  (* bit fixing over 10 prefix bits: ~5 expected *)
  if mean > 10.0 then Alcotest.failf "prefix CAN hops %.1f too high" mean

let test_prefix_can_single_node () =
  let pc = Prefix_can.build (Rng.create 60) ~n:1 in
  Alcotest.(check int) "depth 0" 0 (Prefix_can.depth pc);
  Alcotest.(check int) "owner" 0 (Prefix_can.owner pc 0);
  Alcotest.(check (array int)) "self route" [| 0 |] (Prefix_can.route pc ~src:0 ~key:0).Route.nodes

(* On a power-of-two population the prefix tree is complete, so the
   network is the plain hypercube: log2 n neighbours each. Otherwise a
   node's prefix bits each lead to a different neighbour. *)
let test_prefix_can_degree () =
  let cube = Prefix_can.build (Rng.create 62) ~n:64 in
  for node = 0 to 63 do
    Alcotest.(check int) "hypercube degree" 6 (Array.length (Prefix_can.neighbors cube node))
  done;
  Alcotest.(check (float 1e-9)) "hypercube mean degree" 6.0 (Prefix_can.mean_degree cube);
  let pc = Prefix_can.build (Rng.create 63) ~n:100 in
  let total = ref 0 in
  for node = 0 to 99 do
    let degree = Array.length (Prefix_can.neighbors pc node) in
    let _, len = Prefix_can.prefix_of pc node in
    if degree < len then Alcotest.failf "node %d: degree %d below its %d prefix bits" node degree len;
    total := !total + degree
  done;
  Alcotest.(check (float 1e-9)) "mean degree" (Float.of_int !total /. 100.0)
    (Prefix_can.mean_degree pc);
  Alcotest.(check (float 1e-9)) "single node" 0.0
    (Prefix_can.mean_degree (Prefix_can.build (Rng.create 64) ~n:1))

(* --- Hybrid -------------------------------------------------------- *)

let hybrid_fixture =
  lazy
    (let pop = make_pop ~seed:61 ~policy:Placement.Uniform ~fanout:6 ~levels:3 ~n:1200 () in
     let rings = Rings.build pop in
     (pop, rings, Hybrid.build rings))

let test_hybrid_leaf_clique () =
  let pop, rings, ov = Lazy.force hybrid_fixture in
  for node = 0 to Population.size pop - 1 do
    let leaf_ring = Rings.ring rings pop.Population.leaf_of_node.(node) in
    Array.iter
      (fun peer ->
        if peer <> node && not (Overlay.has_link ov node peer) then
          Alcotest.failf "LAN peers %d and %d not linked" node peer)
      (Ring.members leaf_ring)
  done

let test_hybrid_reaches_and_locality () =
  let pop, _rings, ov = Lazy.force hybrid_fixture in
  let tree = pop.Population.tree in
  let rng = Rng.create 62 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1200 and dst = Rng.int_below rng 1200 in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    let lca = Population.lca_of_nodes pop src dst in
    Array.iter
      (fun node ->
        if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
        then Alcotest.failf "hybrid route %d->%d escapes its domain" src dst)
      route.Route.nodes
  done

let test_hybrid_intra_lan_one_hop () =
  let pop, _rings, ov = Lazy.force hybrid_fixture in
  let rng = Rng.create 63 in
  let checked = ref 0 in
  while !checked < 100 do
    let src = Rng.int_below rng 1200 and dst = Rng.int_below rng 1200 in
    if src <> dst && pop.Population.leaf_of_node.(src) = pop.Population.leaf_of_node.(dst)
    then begin
      incr checked;
      let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
      Alcotest.(check int) "LAN-internal = 1 hop" 1 (Route.hops route)
    end
  done

let test_hybrid_fewer_hops_than_crescendo () =
  let pop, rings, hybrid = Lazy.force hybrid_fixture in
  let crescendo = Crescendo.build rings in
  let rng = Rng.create 64 in
  let h = ref 0 and c = ref 0 in
  for _ = 1 to 600 do
    let src = Rng.int_below rng (Population.size pop) in
    let dst = Rng.int_below rng (Population.size pop) in
    h := !h + Route.hops (Router.greedy_clockwise hybrid ~src ~key:(Overlay.id hybrid dst));
    c := !c + Route.hops (Router.greedy_clockwise crescendo ~src ~key:(Overlay.id crescendo dst))
  done;
  Alcotest.(check bool) (Printf.sprintf "hybrid %d <= crescendo %d hops" !h !c) true (!h <= !c)

(* --- Failure-aware routing ----------------------------------------- *)

let test_avoiding_no_failures_equals_plain () =
  let pop = make_pop ~seed:65 ~fanout:5 ~levels:2 ~n:500 () in
  let ov = Crescendo.build (Rings.build pop) in
  let rng = Rng.create 66 in
  for _ = 1 to 200 do
    let src = Rng.int_below rng 500 and dst = Rng.int_below rng 500 in
    let key = Overlay.id ov dst in
    let plain = Router.greedy_clockwise ov ~src ~key in
    match Router.greedy_clockwise_avoiding ov ~dead:(fun _ -> false) ~src ~key with
    | Some route -> Alcotest.(check (array int)) "identical" plain.Route.nodes route.Route.nodes
    | None -> Alcotest.fail "route failed with no failures"
  done

let test_avoiding_detects_blockage () =
  (* Kill the destination's global predecessor-side links selectively:
     with everyone but src and dst dead, src cannot usually reach dst. *)
  let pop = make_pop ~seed:67 ~fanout:5 ~levels:2 ~n:200 () in
  let ov = Crescendo.build (Rings.build pop) in
  let rng = Rng.create 68 in
  let outcomes = ref 0 in
  for _ = 1 to 50 do
    let src = Rng.int_below rng 200 and dst = Rng.int_below rng 200 in
    if src <> dst then begin
      let dead v = v <> src && v <> dst in
      match Router.greedy_clockwise_avoiding ov ~dead ~src ~key:(Overlay.id ov dst) with
      | Some route when Route.destination route = dst -> ()
      | Some _ -> Alcotest.fail "claimed arrival at wrong node"
      | None -> incr outcomes
    end
  done;
  Alcotest.(check bool) "most extreme-failure routes are reported failed" true (!outcomes > 20)

let test_avoiding_dead_source_rejected () =
  let pop = make_pop ~seed:69 ~fanout:5 ~levels:2 ~n:100 () in
  let ov = Crescendo.build (Rings.build pop) in
  Alcotest.check_raises "dead source"
    (Invalid_argument "Router.greedy_clockwise_avoiding: dead source") (fun () ->
      ignore (Router.greedy_clockwise_avoiding ov ~dead:(fun _ -> true) ~src:0 ~key:1))

let test_isolation_property_direct () =
  (* All nodes outside one depth-1 domain die; intra-domain routing is
     untouched (the fault-isolation claim, tested deterministically). *)
  let pop = make_pop ~seed:70 ~fanout:5 ~levels:3 ~n:1000 () in
  let rings = Rings.build pop in
  let ov = Crescendo.build rings in
  let tree = pop.Population.tree in
  let domain = (Domain_tree.children tree (Domain_tree.root tree)).(0) in
  let members = Ring.members (Rings.ring rings domain) in
  let inside = Array.make 1000 false in
  Array.iter (fun m -> inside.(m) <- true) members;
  let dead v = not inside.(v) in
  let rng = Rng.create 71 in
  if Array.length members >= 2 then
    for _ = 1 to 200 do
      let src = Rng.pick rng members and dst = Rng.pick rng members in
      match Router.greedy_clockwise_avoiding ov ~dead ~src ~key:(Overlay.id ov dst) with
      | Some route -> Alcotest.(check int) "delivered inside domain" dst (Route.destination route)
      | None -> Alcotest.fail "intra-domain route failed under outside-only failures"
    done

let suites =
  [
    ( "pastry",
      [
        Alcotest.test_case "constants" `Quick test_pastry_constants;
        Alcotest.test_case "reaches" `Quick test_pastry_reaches;
        Alcotest.test_case "cell structure" `Quick test_pastry_cell_structure;
        Alcotest.test_case "cell completeness" `Quick test_pastry_cell_completeness;
        Alcotest.test_case "canonical reaches + locality" `Quick
          test_canonical_pastry_reaches_and_locality;
        Alcotest.test_case "degree" `Quick test_pastry_degree;
      ] );
    ( "prefix-can",
      [
        Alcotest.test_case "structure" `Quick test_prefix_can_structure;
        Alcotest.test_case "owners partition space" `Quick test_prefix_can_prefixes_partition_space;
        Alcotest.test_case "edges are hypercube" `Quick test_prefix_can_edges_are_hypercube;
        Alcotest.test_case "routing" `Quick test_prefix_can_routing;
        Alcotest.test_case "hops logarithmic" `Quick test_prefix_can_route_hops_logarithmic;
        Alcotest.test_case "single node" `Quick test_prefix_can_single_node;
        Alcotest.test_case "degree" `Quick test_prefix_can_degree;
      ] );
    ( "hybrid",
      [
        Alcotest.test_case "leaf clique" `Quick test_hybrid_leaf_clique;
        Alcotest.test_case "reaches + locality" `Quick test_hybrid_reaches_and_locality;
        Alcotest.test_case "intra-LAN one hop" `Quick test_hybrid_intra_lan_one_hop;
        Alcotest.test_case "fewer hops than crescendo" `Quick test_hybrid_fewer_hops_than_crescendo;
      ] );
    ( "failures",
      [
        Alcotest.test_case "no failures = plain" `Quick test_avoiding_no_failures_equals_plain;
        Alcotest.test_case "detects blockage" `Quick test_avoiding_detects_blockage;
        Alcotest.test_case "dead source rejected" `Quick test_avoiding_dead_source_rejected;
        Alcotest.test_case "isolation property" `Quick test_isolation_property_direct;
      ] );
  ]
