(* Tests for the DHT constructions and routing engines: these check the
   paper's structural claims directly — Chord equivalence, Canon merge
   conditions, intra-domain path locality, inter-domain path
   convergence, and the degree/hop bounds of Theorems 1-5. *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng

let make_pop ?(seed = 1) ?(policy = Placement.Zipfian 1.25) ~fanout ~levels ~n () =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout ~levels) in
  Population.create rng ~tree ~policy ~n

let log2f x = log x /. log 2.0

(* --- Ring --------------------------------------------------------- *)

let mini_ring () =
  (* ids: node 0 -> 10, node 1 -> 20, node 2 -> 30, node 3 -> 4000000000 *)
  let ids = [| 10; 20; 30; 4000000000 |] in
  (Ring.of_members ~ids ~members:[| 0; 1; 2; 3 |], ids)

let test_ring_searches () =
  let ring, _ids = mini_ring () in
  Alcotest.(check int) "size" 4 (Ring.size ring);
  Alcotest.(check int) "first at-or-after exact" 1 (Ring.first_at_or_after ring 20);
  Alcotest.(check int) "first at-or-after between" 2 (Ring.first_at_or_after ring 21);
  Alcotest.(check int) "first at-or-after wraps" 0 (Ring.first_at_or_after ring 4000000001);
  Alcotest.(check int) "successor skips self" 2 (Ring.successor_of_id ring 20);
  Alcotest.(check int) "predecessor exact" 1 (Ring.predecessor_of_id ring 20);
  Alcotest.(check int) "predecessor between" 1 (Ring.predecessor_of_id ring 29);
  Alcotest.(check int) "predecessor wraps" 3 (Ring.predecessor_of_id ring 5);
  Alcotest.(check bool) "contains" true (Ring.contains ring 30);
  Alcotest.(check bool) "not contains" false (Ring.contains ring 31)

let test_ring_successor_distance () =
  let ring, _ = mini_ring () in
  Alcotest.(check int) "simple" 10 (Ring.successor_distance ring 10);
  Alcotest.(check int) "wrapping" (Id.space - 4000000000 + 10) (Ring.successor_distance ring 4000000000);
  let single = Ring.of_members ~ids:[| 42 |] ~members:[| 0 |] in
  Alcotest.(check int) "singleton" Id.space (Ring.successor_distance single 42)

let test_ring_finger () =
  let ring, _ = mini_ring () in
  (* from id 10: closest node at least 16 away is node 2 (id 30, d 20) *)
  Alcotest.(check (option int)) "finger 16" (Some 2) (Ring.finger ring 10 16);
  Alcotest.(check (option int)) "finger 1" (Some 1) (Ring.finger ring 10 1);
  (* from a singleton ring the walk wraps to self *)
  let single = Ring.of_members ~ids:[| 42 |] ~members:[| 0 |] in
  Alcotest.(check (option int)) "singleton none" None (Ring.finger single 42 1)

let test_ring_arcs () =
  let ring, _ = mini_ring () in
  Alcotest.(check int) "arc simple" 2 (Ring.arc_count ring ~start:10 ~len:15);
  Alcotest.(check int) "arc all" 4 (Ring.arc_count ring ~start:0 ~len:Id.space);
  Alcotest.(check int) "arc empty" 0 (Ring.arc_count ring ~start:31 ~len:100);
  (* wrapping arc from near the top: [4000000001, 2^32) U [0, ~5000000) *)
  Alcotest.(check int) "arc wrap" 3 (Ring.arc_count ring ~start:4000000001 ~len:300_000_000);
  let nth start i = Ring.nth_from ring (Ring.rank_at_or_after ring start) i in
  Alcotest.(check int) "arc nth" 1 (nth 10 1);
  Alcotest.(check int) "arc nth wrap" 1 (nth 4000000001 1)

(* A uniform member of the arc, and no draw at all from an empty one:
   the draw after an empty-arc call is the fresh stream's first. *)
let test_ring_random_in_arc () =
  let ring, _ = mini_ring () in
  let rng = Rng.create 3 in
  Alcotest.(check (option int)) "empty arc" None
    (Ring.random_in_arc rng ring ~start:31 ~len:100);
  Alcotest.(check int) "empty arc draws nothing"
    (Rng.int_below (Rng.create 3) 1_000_000)
    (Rng.int_below rng 1_000_000);
  let seen arc_start arc_len =
    let hit = Array.make 4 false in
    for _ = 1 to 400 do
      match Ring.random_in_arc rng ring ~start:arc_start ~len:arc_len with
      | Some v -> hit.(v) <- true
      | None -> Alcotest.fail "non-empty arc gave None"
    done;
    hit
  in
  Alcotest.(check (array bool)) "arc [10, 25)" [| true; true; false; false |] (seen 10 15);
  Alcotest.(check (array bool)) "wrapping arc" [| true; true; true; false |]
    (seen 4000000001 300_000_000)

let test_ring_duplicate_ids () =
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Ring.of_members ~ids:[| 5; 5 |] ~members:[| 0; 1 |]);
       false
     with Invalid_argument _ -> true)

let prop_ring_predecessor_successor =
  QCheck.Test.make ~count:300 ~name:"ring: predecessor/successor bracket every key"
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, key0) ->
      let rng = Rng.create (seed + 1) in
      let n = 2 + Rng.int_below rng 60 in
      let ids = Population.unique_ids rng n in
      let ring = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
      let key = (key0 * 4001) land (Id.space - 1) in
      let pred = Ring.predecessor_of_id ring key in
      let next = Ring.first_at_or_after ring (Id.add key 1) in
      (* The predecessor manages [key]: no member lies strictly between
         pred and key. *)
      Array.for_all
        (fun node ->
          node = pred
          || not
               (Id.in_clockwise_interval ids.(node) ~lo:ids.(pred) ~hi:key
               && ids.(node) <> ids.(pred)))
        (Array.init n Fun.id)
      && Id.distance ids.(pred) key < Id.space
      && ids.(next) = ids.(next))

(* --- Chord -------------------------------------------------------- *)

let chord_fixture =
  lazy
    (let pop = make_pop ~fanout:10 ~levels:1 ~n:1024 () in
     (pop, Chord.build pop))

let test_chord_successor_links () =
  let pop, ov = Lazy.force chord_fixture in
  let n = Population.size pop in
  let ring = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) in
  for node = 0 to n - 1 do
    let succ = Ring.successor_of_id ring pop.Population.ids.(node) in
    if not (Overlay.has_link ov node succ) then
      Alcotest.failf "node %d lacks successor link" node
  done

let test_chord_routing_reaches () =
  let _pop, ov = Lazy.force chord_fixture in
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let src = Rng.int_below rng (Overlay.size ov) in
    let dst = Rng.int_below rng (Overlay.size ov) in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches dst" dst (Route.destination route);
    Alcotest.(check int) "starts at src" src route.Route.nodes.(0)
  done

let test_chord_key_routing_hits_predecessor () =
  let pop, ov = Lazy.force chord_fixture in
  let n = Population.size pop in
  let ring = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) in
  let rng = Rng.create 11 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng n in
    let key = Id.random rng in
    let route = Router.greedy_clockwise ov ~src ~key in
    Alcotest.(check int) "ends at key predecessor" (Ring.predecessor_of_id ring key)
      (Route.destination route)
  done

let test_chord_degree_bound () =
  let pop, ov = Lazy.force chord_fixture in
  let n = Population.size pop in
  (* Theorem 1: E[degree] <= log2(n-1) + 1. The empirical mean over 1024
     nodes concentrates tightly; allow a small sampling margin. *)
  let bound = log2f (Float.of_int (n - 1)) +. 1.0 in
  let mean = Overlay.mean_degree ov in
  if mean > bound +. 0.25 then Alcotest.failf "mean degree %.3f exceeds bound %.3f" mean bound;
  if mean < 0.6 *. bound then Alcotest.failf "mean degree %.3f suspiciously low" mean

let test_chord_hops_bound () =
  let _pop, ov = Lazy.force chord_fixture in
  let n = Overlay.size ov in
  let rng = Rng.create 13 in
  let samples = 2000 in
  let total = ref 0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    total := !total + Route.hops (Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst))
  done;
  let mean = Float.of_int !total /. Float.of_int samples in
  (* Theorem 4: E[hops] <= 0.5 log2(n-1) + 0.5  (~5.5 at n=1024). *)
  let bound = (0.5 *. log2f (Float.of_int (n - 1))) +. 0.5 in
  if mean > bound +. 0.3 then Alcotest.failf "mean hops %.3f exceeds bound %.3f" mean bound;
  if mean < 2.0 then Alcotest.failf "mean hops %.3f suspiciously low" mean

let test_chord_deterministic () =
  let pop = make_pop ~seed:5 ~fanout:10 ~levels:1 ~n:256 () in
  let a = Chord.build pop and b = Chord.build pop in
  for node = 0 to Population.size pop - 1 do
    let sort l = let l = Array.copy l in Array.sort Int.compare l; l in
    Alcotest.(check (array int)) "same links" (sort (Overlay.links a node)) (sort (Overlay.links b node))
  done

(* --- Crescendo ---------------------------------------------------- *)

let crescendo_fixture =
  lazy
    (let pop = make_pop ~seed:2 ~fanout:5 ~levels:3 ~n:2000 () in
     let rings = Rings.build pop in
     (pop, rings, Crescendo.build rings))

(* With a one-level hierarchy every Canonical DHT is its flat base: the
   merge of one ring is the flat rule, draw for draw under equal seeds. *)
let test_crescendo_flat_equals_chord () =
  let pop = make_pop ~seed:3 ~fanout:10 ~levels:1 ~n:512 () in
  let rings = Rings.build pop in
  let same what flat canonical =
    for node = 0 to Population.size pop - 1 do
      Alcotest.(check (array int)) what (Overlay.links flat node) (Overlay.links canonical node)
    done
  in
  let seeded build seed input = build (Rng.create seed) input in
  same "crescendo = chord" (Chord.build pop) (Crescendo.build rings);
  same "cacophony = symphony" (seeded Symphony.build 7 pop) (seeded Cacophony.build 7 rings);
  same "nd-crescendo = nd-chord" (seeded Nd_chord.build 8 pop) (seeded Nd_crescendo.build 8 rings);
  same "kandy = kademlia" (seeded Kademlia.build 9 pop) (seeded Kandy.build 9 rings);
  same "can-can = can" (Can.build pop) (Can_can.build rings);
  same "canonical pastry = pastry" (seeded Pastry.build 10 pop)
    (seeded Pastry.build_canonical 10 rings)

let test_crescendo_successor_at_every_level () =
  let pop, rings, ov = Lazy.force crescendo_fixture in
  for node = 0 to Population.size pop - 1 do
    let id = pop.Population.ids.(node) in
    Array.iter
      (fun domain ->
        let ring = Rings.ring rings domain in
        if Ring.size ring >= 2 then begin
          let succ = Ring.successor_of_id ring id in
          if not (Overlay.has_link ov node succ) then
            Alcotest.failf "node %d lacks level successor in domain %d" node domain
        end)
      (Rings.chain rings node)
  done

let test_crescendo_condition_b () =
  (* Every link leaving the node's leaf domain must be strictly closer
     than the closest node of the child ring at the level where the
     link was created (the lca level). *)
  let pop, rings, ov = Lazy.force crescendo_fixture in
  let tree = pop.Population.tree in
  Overlay.iter_links ov (fun src dst ->
      let leaf_src = pop.Population.leaf_of_node.(src) in
      let leaf_dst = pop.Population.leaf_of_node.(dst) in
      if leaf_src <> leaf_dst then begin
        let lca = Domain_tree.lca tree leaf_src leaf_dst in
        (* src's child domain under the lca *)
        let child = Domain_tree.ancestor_at_depth tree leaf_src (Domain_tree.depth tree lca + 1) in
        let child_ring = Rings.ring rings child in
        let d_own = Ring.successor_distance child_ring pop.Population.ids.(src) in
        let d = Id.distance pop.Population.ids.(src) pop.Population.ids.(dst) in
        if d >= d_own then
          Alcotest.failf "link %d->%d violates condition (b): d=%d d_own=%d" src dst d d_own
      end)

let test_crescendo_routing_reaches () =
  let _pop, _rings, ov = Lazy.force crescendo_fixture in
  let rng = Rng.create 17 in
  for _ = 1 to 500 do
    let src = Rng.int_below rng (Overlay.size ov) in
    let dst = Rng.int_below rng (Overlay.size ov) in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches dst" dst (Route.destination route)
  done

let test_crescendo_intra_domain_locality () =
  (* Paper §2.2: the route between two nodes of a domain never leaves
     the lowest domain containing both. *)
  let pop, _rings, ov = Lazy.force crescendo_fixture in
  let tree = pop.Population.tree in
  let rng = Rng.create 19 in
  let checked = ref 0 in
  let n = Population.size pop in
  while !checked < 300 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    if src <> dst then begin
      let lca = Population.lca_of_nodes pop src dst in
      if Domain_tree.depth tree lca >= 1 then begin
        incr checked;
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        Array.iter
          (fun node ->
            let leaf = pop.Population.leaf_of_node.(node) in
            if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:leaf) then
              Alcotest.failf "route %d->%d leaves lca domain %d at node %d" src dst lca node)
          route.Route.nodes
      end
    end
  done

let test_crescendo_inter_domain_convergence () =
  (* Paper §2.2: all routes from nodes of a domain D to an outside node
     t exit D through the closest predecessor of t within D. *)
  let pop, rings, ov = Lazy.force crescendo_fixture in
  let tree = pop.Population.tree in
  let rng = Rng.create 23 in
  let n = Population.size pop in
  let trials = ref 0 in
  while !trials < 40 do
    let dst = Rng.int_below rng n in
    (* pick a depth-1 domain not containing dst *)
    let domains = Domain_tree.children tree (Domain_tree.root tree) in
    let d = domains.(Rng.int_below rng (Array.length domains)) in
    let dst_dom = Population.domain_of_node_at_depth pop dst 1 in
    let ring = Rings.ring rings d in
    if d <> dst_dom && Ring.size ring >= 2 then begin
      incr trials;
      let proxy = Ring.predecessor_of_id ring (Overlay.id ov dst) in
      (* route from several random members of d *)
      for _ = 1 to 10 do
        let src = Ring.node_at ring (Rng.int_below rng (Ring.size ring)) in
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        (* last node of the path that lies inside d *)
        let exit = ref (-1) in
        Array.iter
          (fun node ->
            if Population.domain_of_node_at_depth pop node 1 = d then exit := node)
          route.Route.nodes;
        Alcotest.(check int) "exit through proxy" proxy !exit
      done
    end
  done

let test_crescendo_degree_bound () =
  let pop, _rings, ov = Lazy.force crescendo_fixture in
  let n = Population.size pop in
  let tree = pop.Population.tree in
  let l = Float.of_int (Domain_tree.height tree + 1) in
  (* Theorem 2: E[degree] <= log2(n-1) + min(l, log2 n). *)
  let bound = log2f (Float.of_int (n - 1)) +. Float.min l (log2f (Float.of_int n)) in
  let mean = Overlay.mean_degree ov in
  if mean > bound then Alcotest.failf "mean degree %.3f exceeds Theorem 2 bound %.3f" mean bound;
  (* Paper's stronger experimental observation: hierarchical degree is
     *below* flat Chord's log2(n-1)+1. *)
  let chord_bound = log2f (Float.of_int (n - 1)) +. 1.0 in
  if mean > chord_bound then
    Alcotest.failf "mean degree %.3f above Chord bound %.3f (paper: should be below)" mean chord_bound

let test_crescendo_hops_bound () =
  let _pop, _rings, ov = Lazy.force crescendo_fixture in
  let n = Overlay.size ov in
  let rng = Rng.create 29 in
  let samples = 1000 in
  let total = ref 0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    total := !total + Route.hops (Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst))
  done;
  let mean = Float.of_int !total /. Float.of_int samples in
  (* Theorem 5: E[hops] <= log2(n-1) + 1; experimentally ~0.5 log n + c. *)
  let bound = log2f (Float.of_int (n - 1)) +. 1.0 in
  if mean > bound then Alcotest.failf "mean hops %.3f exceeds Theorem 5 bound %.3f" mean bound;
  let chord_like = (0.5 *. log2f (Float.of_int (n - 1))) +. 0.5 in
  if mean > chord_like +. 0.7 +. 0.3 then
    Alcotest.failf "mean hops %.3f more than 0.7 above Chord's %.3f (paper Fig 5)" mean chord_like

(* Every builder of lib/core on the degenerate populations: each
   overlay builder gives an empty overlay on 0 nodes and a linkless one
   on 1 node; SkipNet and the prefix-tree CAN reject 0 nodes and build
   on 1. *)
let test_builders_zero_and_one_node () =
  let latency _ _ = 1.0 in
  let rng () = Rng.create 5 in
  let builders =
    [
      ("Chord", Chord.build);
      ("Crescendo", fun pop -> Crescendo.build (Rings.build pop));
      ("Symphony", fun pop -> Symphony.build (rng ()) pop);
      ("Canonical Symphony", fun pop -> Symphony.build_canonical (rng ()) (Rings.build pop));
      ("Cacophony", fun pop -> Cacophony.build (rng ()) (Rings.build pop));
      ("ND-Chord", fun pop -> Nd_chord.build (rng ()) pop);
      ("Canonical ND-Chord", fun pop -> Nd_chord.build_canonical (rng ()) (Rings.build pop));
      ("ND-Crescendo", fun pop -> Nd_crescendo.build (rng ()) (Rings.build pop));
      ("Kademlia", fun pop -> Kademlia.build (rng ()) pop);
      ("Kandy", fun pop -> Kandy.build (rng ()) (Rings.build pop));
      ("CAN", Can.build);
      ("Can-Can", fun pop -> Can_can.build (Rings.build pop));
      ("XOR flat", Xor_dht.build_flat Xor_dht.Closest);
      ("XOR hierarchical", fun pop -> Xor_dht.build_hierarchical Xor_dht.Closest (Rings.build pop));
      ("Pastry", fun pop -> Pastry.build (rng ()) pop);
      ("Canonical Pastry", fun pop -> Pastry.build_canonical (rng ()) (Rings.build pop));
      ("Hybrid", fun pop -> Hybrid.build (Rings.build pop));
      ( "Chord (Prox.)",
        fun pop -> Proximity.overlay (Proximity.build_chord pop ~node_latency:latency) );
      ( "Crescendo (Prox.)",
        fun pop ->
          Proximity.overlay (Proximity.build_crescendo (Rings.build pop) ~node_latency:latency) );
    ]
  in
  let pop0 = make_pop ~seed:4 ~fanout:3 ~levels:2 ~n:0 () in
  let pop1 = make_pop ~seed:4 ~fanout:3 ~levels:2 ~n:1 () in
  List.iter
    (fun (name, build) ->
      Alcotest.(check int) (name ^ ": empty overlay") 0 (Overlay.size (build pop0));
      let ov1 = build pop1 in
      Alcotest.(check int) (name ^ ": one node, no links") 0 (Array.length (Overlay.links ov1 0));
      let r = Router.greedy_clockwise ov1 ~src:0 ~key:12345 in
      Alcotest.(check int) (name ^ ": routes to itself") 0 (Route.destination r))
    builders;
  Alcotest.check_raises "SkipNet: 0 nodes" (Invalid_argument "Skipnet.build: empty population")
    (fun () -> ignore (Skipnet.build pop0));
  Alcotest.(check (array int)) "SkipNet: 1 node" [| 0 |]
    (Skipnet.route_by_name (Skipnet.build pop1) ~src:0 ~dst:0).Route.nodes;
  Alcotest.check_raises "prefix CAN: 0 nodes"
    (Invalid_argument "Prefix_can.build: need at least one node") (fun () ->
      ignore (Prefix_can.build (rng ()) ~n:0));
  Alcotest.(check (array int)) "prefix CAN: 1 node" [| 0 |]
    (Prefix_can.route (Prefix_can.build (rng ()) ~n:1) ~src:0 ~key:0).Route.nodes

(* --- Symphony / Cacophony ---------------------------------------- *)

let test_symphony_routing_reaches () =
  let pop = make_pop ~seed:6 ~fanout:10 ~levels:1 ~n:1024 () in
  let ov = Symphony.build (Rng.create 100) pop in
  let rng = Rng.create 31 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_symphony_degree () =
  let pop = make_pop ~seed:6 ~fanout:10 ~levels:1 ~n:1024 () in
  let ov = Symphony.build (Rng.create 100) pop in
  let mean = Overlay.mean_degree ov in
  (* 1 successor + floor(log2 1024) = 10 long links, minus collisions. *)
  if mean > 11.0 || mean < 7.0 then Alcotest.failf "symphony mean degree %.2f out of range" mean

let test_symphony_harmonic_distribution () =
  let rng = Rng.create 41 in
  let n = 1024 in
  let small = ref 0 and total = 10_000 in
  for _ = 1 to total do
    let d = Symphony.harmonic_distance rng ~n in
    if d <= Id.space / 32 then incr small
  done;
  (* P(x <= 1/32) = ln(n/32)/ln n = (10-5)/10 = 0.5 for n = 2^10. *)
  let frac = Float.of_int !small /. Float.of_int total in
  if Float.abs (frac -. 0.5) > 0.05 then
    Alcotest.failf "harmonic draw fraction %.3f, expected ~0.5" frac

let test_lookahead_reaches_and_helps () =
  let pop = make_pop ~seed:8 ~fanout:10 ~levels:1 ~n:2048 () in
  let ov = Symphony.build (Rng.create 200) pop in
  let rng = Rng.create 43 in
  let samples = 600 in
  let plain = ref 0 and look = ref 0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng 2048 and dst = Rng.int_below rng 2048 in
    let key = Overlay.id ov dst in
    let r1 = Router.greedy_clockwise ov ~src ~key in
    let r2 = Router.greedy_clockwise_lookahead ov ~src ~key in
    Alcotest.(check int) "lookahead reaches" dst (Route.destination r2);
    plain := !plain + Route.hops r1;
    look := !look + Route.hops r2
  done;
  (* §3.1: lookahead gives ~40% fewer hops; require at least 15%. *)
  if Float.of_int !look > 0.85 *. Float.of_int !plain then
    Alcotest.failf "lookahead %d hops not clearly better than plain %d" !look !plain

let cacophony_fixture =
  lazy
    (let pop = make_pop ~seed:9 ~fanout:5 ~levels:3 ~n:1500 () in
     let rings = Rings.build pop in
     (pop, rings, Cacophony.build (Rng.create 300) rings))

let test_cacophony_routing_reaches () =
  let _pop, _rings, ov = Lazy.force cacophony_fixture in
  let rng = Rng.create 47 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng (Overlay.size ov) in
    let dst = Rng.int_below rng (Overlay.size ov) in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_cacophony_locality () =
  let pop, _rings, ov = Lazy.force cacophony_fixture in
  let tree = pop.Population.tree in
  let rng = Rng.create 53 in
  let n = Population.size pop in
  let checked = ref 0 in
  while !checked < 200 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    if src <> dst then begin
      let lca = Population.lca_of_nodes pop src dst in
      if Domain_tree.depth tree lca >= 1 then begin
        incr checked;
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        Array.iter
          (fun node ->
            if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
            then Alcotest.failf "cacophony route %d->%d escapes its domain" src dst)
          route.Route.nodes
      end
    end
  done

let test_cacophony_degree () =
  let _pop, _rings, ov = Lazy.force cacophony_fixture in
  let mean = Overlay.mean_degree ov in
  let bound = log2f 1500.0 +. 3.0 in
  if mean > bound || mean < 3.0 then Alcotest.failf "cacophony mean degree %.2f out of range" mean

(* --- Nondeterministic Chord / Crescendo --------------------------- *)

let test_nd_chord_reaches_and_degree () =
  let pop = make_pop ~seed:10 ~fanout:10 ~levels:1 ~n:1024 () in
  let ov = Nd_chord.build (Rng.create 400) pop in
  let rng = Rng.create 59 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done;
  let mean = Overlay.mean_degree ov in
  if mean > 12.0 || mean < 7.0 then Alcotest.failf "nd-chord mean degree %.2f out of range" mean

let test_nd_chord_bucket_structure () =
  (* Every link other than the successor must fall into a [2^k, 2^(k+1))
     bucket — trivially true — and no bucket may hold two links. *)
  let pop = make_pop ~seed:11 ~fanout:10 ~levels:1 ~n:512 () in
  let ov = Nd_chord.build (Rng.create 500) pop in
  let n = Population.size pop in
  let ring = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) in
  for node = 0 to n - 1 do
    let id = pop.Population.ids.(node) in
    let succ = Ring.successor_of_id ring id in
    let buckets = Array.make Id.bits 0 in
    Array.iter
      (fun v ->
        if v <> succ then begin
          let k = Id.log2_floor (Id.distance id pop.Population.ids.(v)) in
          buckets.(k) <- buckets.(k) + 1
        end)
      (Overlay.links ov node);
    Array.iteri
      (fun k c -> if c > 1 then Alcotest.failf "node %d has %d links in bucket %d" node c k)
      buckets
  done

let nd_crescendo_fixture =
  lazy
    (let pop = make_pop ~seed:12 ~fanout:5 ~levels:3 ~n:1500 () in
     let rings = Rings.build pop in
     (pop, rings, Nd_crescendo.build (Rng.create 600) rings))

let test_nd_crescendo_reaches () =
  let _pop, _rings, ov = Lazy.force nd_crescendo_fixture in
  let rng = Rng.create 61 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng (Overlay.size ov) in
    let dst = Rng.int_below rng (Overlay.size ov) in
    let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_nd_crescendo_locality () =
  let pop, _rings, ov = Lazy.force nd_crescendo_fixture in
  let tree = pop.Population.tree in
  let rng = Rng.create 67 in
  let n = Population.size pop in
  let checked = ref 0 in
  while !checked < 200 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    if src <> dst then begin
      let lca = Population.lca_of_nodes pop src dst in
      if Domain_tree.depth tree lca >= 1 then begin
        incr checked;
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        Array.iter
          (fun node ->
            if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
            then Alcotest.failf "nd-crescendo route %d->%d escapes its domain" src dst)
          route.Route.nodes
      end
    end
  done

let test_nd_crescendo_condition_b () =
  let pop, rings, ov = Lazy.force nd_crescendo_fixture in
  let tree = pop.Population.tree in
  Overlay.iter_links ov (fun src dst ->
      let leaf_src = pop.Population.leaf_of_node.(src) in
      let leaf_dst = pop.Population.leaf_of_node.(dst) in
      if leaf_src <> leaf_dst then begin
        let lca = Domain_tree.lca tree leaf_src leaf_dst in
        let child = Domain_tree.ancestor_at_depth tree leaf_src (Domain_tree.depth tree lca + 1) in
        let d_own = Ring.successor_distance (Rings.ring rings child) pop.Population.ids.(src) in
        let d = Id.distance pop.Population.ids.(src) pop.Population.ids.(dst) in
        if d > d_own then
          Alcotest.failf "nd link %d->%d violates condition (b): d=%d d_own=%d" src dst d d_own
      end)

(* --- Kademlia / Kandy / CAN / Can-Can ----------------------------- *)

let test_kademlia_reaches () =
  let pop = make_pop ~seed:13 ~fanout:10 ~levels:1 ~n:1024 () in
  let ov = Kademlia.build (Rng.create 700) pop in
  let rng = Rng.create 71 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Router.greedy_xor ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_kademlia_bucket_invariant () =
  let pop = make_pop ~seed:14 ~fanout:10 ~levels:1 ~n:512 () in
  let ov = Kademlia.build (Rng.create 800) pop in
  let n = Population.size pop in
  let ids = pop.Population.ids in
  for node = 0 to n - 1 do
    let covered = Array.make Id.bits false in
    Array.iter
      (fun v -> covered.(Id.log2_floor (Id.xor_distance ids.(node) ids.(v))) <- true)
      (Overlay.links ov node);
    (* every non-empty bucket must be covered *)
    for other = 0 to n - 1 do
      if other <> node then begin
        let k = Id.log2_floor (Id.xor_distance ids.(node) ids.(other)) in
        if not covered.(k) then Alcotest.failf "node %d misses non-empty bucket %d" node k
      end
    done
  done

let xor_hier_fixture =
  lazy
    (let pop = make_pop ~seed:15 ~fanout:5 ~levels:3 ~n:1200 () in
     let rings = Rings.build pop in
     (pop, rings))

let test_kandy_reaches_and_locality () =
  let pop, rings = Lazy.force xor_hier_fixture in
  let ov = Kandy.build (Rng.create 900) rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 73 in
  let n = Population.size pop in
  for _ = 1 to 300 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Router.greedy_xor ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    (* XOR locality: greedy descent stays within the lca domain. *)
    let lca = Population.lca_of_nodes pop src dst in
    Array.iter
      (fun node ->
        if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
        then Alcotest.failf "kandy route %d->%d escapes its lca domain" src dst)
      route.Route.nodes
  done

let test_kandy_domain_bucket_invariant () =
  (* For every domain D containing m and every bucket of m non-empty
     within D, m links to a node of D in that bucket. *)
  let pop, rings = Lazy.force xor_hier_fixture in
  let ov = Kandy.build (Rng.create 901) rings in
  let ids = pop.Population.ids in
  let rng = Rng.create 79 in
  for _ = 1 to 100 do
    let node = Rng.int_below rng (Population.size pop) in
    Array.iter
      (fun domain ->
        let ring = Rings.ring rings domain in
        let members = Ring.members ring in
        let needed = Array.make Id.bits false in
        Array.iter
          (fun m ->
            if m <> node then
              needed.(Id.log2_floor (Id.xor_distance ids.(node) ids.(m))) <- true)
          members;
        let covered = Array.make Id.bits false in
        Array.iter
          (fun v ->
            (* only links into this domain count *)
            if Array.exists (Int.equal v) members then
              covered.(Id.log2_floor (Id.xor_distance ids.(node) ids.(v))) <- true)
          (Overlay.links ov node);
        Array.iteri
          (fun k need ->
            if need && not covered.(k) then
              Alcotest.failf "node %d: bucket %d non-empty in domain %d but unlinked" node k domain)
          needed)
      (Rings.chain rings node)
  done

let test_can_deterministic_and_reaches () =
  let pop = make_pop ~seed:16 ~fanout:10 ~levels:1 ~n:777 () in
  let a = Can.build pop and b = Can.build pop in
  for node = 0 to 776 do
    Alcotest.(check (array int)) "deterministic" (Overlay.links a node) (Overlay.links b node)
  done;
  let rng = Rng.create 83 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 777 and dst = Rng.int_below rng 777 in
    let route = Router.greedy_xor a ~src ~key:(Overlay.id a dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_can_closest_choice () =
  (* The deterministic rule picks, per bucket, the XOR-closest member. *)
  let pop = make_pop ~seed:17 ~fanout:10 ~levels:1 ~n:300 () in
  let ov = Can.build pop in
  let n = 300 in
  let ids = pop.Population.ids in
  for node = 0 to n - 1 do
    Array.iter
      (fun v ->
        let d = Id.xor_distance ids.(node) ids.(v) in
        let k = Id.log2_floor d in
        (* no other node in the same bucket may be strictly closer *)
        for other = 0 to n - 1 do
          if other <> node && other <> v then begin
            let d' = Id.xor_distance ids.(node) ids.(other) in
            if Id.log2_floor d' = k && d' < d then
              Alcotest.failf "node %d bucket %d: linked %d (d=%d) but %d closer (d=%d)" node k v d
                other d'
          end
        done)
      (Overlay.links ov node)
  done

let test_can_can_reaches () =
  let _pop, rings = Lazy.force xor_hier_fixture in
  let ov = Can_can.build rings in
  let rng = Rng.create 89 in
  let n = Overlay.size ov in
  for _ = 1 to 300 do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Router.greedy_xor ov ~src ~key:(Overlay.id ov dst) in
    Alcotest.(check int) "reaches" dst (Route.destination route)
  done

let test_xor_hier_degree () =
  let _pop, rings = Lazy.force xor_hier_fixture in
  let kandy = Kandy.build (Rng.create 902) rings in
  let cancan = Can_can.build rings in
  let bound = log2f 1200.0 +. 3.0 in
  if Overlay.mean_degree kandy > bound then
    Alcotest.failf "kandy mean degree %.2f too high" (Overlay.mean_degree kandy);
  if Overlay.mean_degree cancan > bound then
    Alcotest.failf "can-can mean degree %.2f too high" (Overlay.mean_degree cancan)

(* --- Proximity ---------------------------------------------------- *)

(* A synthetic latency oracle: nodes are placed on a line by leaf
   domain; latency is the absolute distance. It rewards proximity-aware
   choices deterministically. *)
let line_latency pop a b =
  let pa = pop.Population.leaf_of_node.(a) and pb = pop.Population.leaf_of_node.(b) in
  1.0 +. Float.abs (Float.of_int pa -. Float.of_int pb)

let test_chord_prox_reaches () =
  let pop = make_pop ~seed:18 ~fanout:10 ~levels:2 ~n:1024 () in
  let prox = Proximity.build_chord pop ~node_latency:(line_latency pop) in
  let rng = Rng.create 97 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Proximity.route prox ~src ~dst in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    Alcotest.(check int) "from src" src route.Route.nodes.(0)
  done

let test_chord_prox_clique () =
  let pop = make_pop ~seed:19 ~fanout:10 ~levels:1 ~n:512 () in
  let prox = Proximity.build_chord pop ~node_latency:(line_latency pop) in
  let ov = Proximity.overlay prox in
  let t_bits = Proximity.group_bits ~n:512 ~group_size:Proximity.default_group_size in
  for a = 0 to 511 do
    for b = 0 to 511 do
      if a <> b
         && Id.prefix (Overlay.id ov a) t_bits = Id.prefix (Overlay.id ov b) t_bits
         && not (Overlay.has_link ov a b)
      then Alcotest.failf "group peers %d %d not linked" a b
    done
  done

let test_crescendo_prox_reaches_and_locality () =
  let pop = make_pop ~seed:20 ~fanout:5 ~levels:3 ~n:1024 () in
  let rings = Rings.build pop in
  let prox = Proximity.build_crescendo rings ~node_latency:(line_latency pop) in
  let tree = pop.Population.tree in
  let rng = Rng.create 101 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 1024 and dst = Rng.int_below rng 1024 in
    let route = Proximity.route prox ~src ~dst in
    Alcotest.(check int) "reaches" dst (Route.destination route);
    let lca = Population.lca_of_nodes pop src dst in
    Array.iter
      (fun node ->
        if not (Domain_tree.is_ancestor tree ~anc:lca ~desc:pop.Population.leaf_of_node.(node))
        then Alcotest.failf "crescendo-prox route %d->%d escapes its domain" src dst)
      route.Route.nodes
  done

(* The root pick samples every member of an admissible arc with fewer
   than 64 members: node 0 (id 0) of a one-level population whose only
   other nodes are 63 members of the arc [2^20, 2^21) prices the finger
   and then all 63 members, 64 latency calls. Every other arc of node 0
   is empty, so its finger is taken unpriced. *)
let test_crescendo_prox_samples_small_arcs () =
  let ids = Array.append [| 0 |] (Array.init 63 (fun i -> (1 lsl 20) + (i * 1000))) in
  let tree = Domain_tree.of_spec Domain_tree.Leaf in
  let pop =
    { Population.ids; tree; leaf_of_node = Array.make 64 (Domain_tree.root tree); attach = None }
  in
  let calls = ref 0 in
  let node_latency u v =
    if u = 0 then incr calls;
    Float.of_int (abs (u - v))
  in
  ignore (Proximity.build_crescendo (Rings.build pop) ~node_latency);
  Alcotest.(check int) "latency calls from node 0" 64 !calls

let test_group_bits () =
  Alcotest.(check int) "small n" 0 (Proximity.group_bits ~n:8 ~group_size:16);
  Alcotest.(check int) "1024/16" 6 (Proximity.group_bits ~n:1024 ~group_size:16);
  Alcotest.(check int) "nonpow2" 6 (Proximity.group_bits ~n:1100 ~group_size:16)

(* --- Route metrics ------------------------------------------------ *)

let test_route_metrics () =
  let r = Route.{ nodes = [| 3; 5; 9 |] } in
  Alcotest.(check int) "hops" 2 (Route.hops r);
  Alcotest.(check int) "dst" 9 (Route.destination r);
  let lat = Route.latency r ~node_latency:(fun a b -> Float.of_int (abs (a - b))) in
  Alcotest.(check (float 1e-9)) "latency" 6.0 lat;
  let single = Route.{ nodes = [| 7 |] } in
  Alcotest.(check int) "singleton hops" 0 (Route.hops single);
  Alcotest.(check (float 1e-9)) "singleton latency" 0.0
    (Route.latency single ~node_latency:(fun _ _ -> 1.0))

let test_route_overlap () =
  let p1 = Route.{ nodes = [| 1; 2; 3; 4 |] } in
  let p2 = Route.{ nodes = [| 9; 2; 3; 4 |] } in
  Alcotest.(check (float 1e-9)) "hop overlap" (2.0 /. 3.0)
    (Route.overlap_fraction ~reference:p1 p2 `Hops);
  let oracle a b = if (a, b) = (2, 3) || (b, a) = (2, 3) then 10.0 else 1.0 in
  Alcotest.(check (float 1e-9)) "latency overlap" (11.0 /. 12.0)
    (Route.overlap_fraction ~reference:p1 p2 (`Latency oracle));
  Alcotest.(check (float 1e-9)) "disjoint" 0.0
    (Route.overlap_fraction ~reference:p1 Route.{ nodes = [| 7; 8 |] } `Hops);
  Alcotest.(check (float 1e-9)) "self overlap" 1.0
    (Route.overlap_fraction ~reference:p1 p1 `Hops)

let test_route_domain_crossings () =
  let r = Route.{ nodes = [| 0; 1; 2; 3 |] } in
  let dom = function 0 -> 0 | 1 -> 0 | 2 -> 1 | 3 -> 1 | _ -> assert false in
  Alcotest.(check int) "crossings" 1 (Route.domain_crossings r ~domain_of_node:dom)

let test_route_edges () =
  Alcotest.(check (array (pair int int))) "edges in traversal order" [| (3, 5); (5, 9) |]
    (Route.edges Route.{ nodes = [| 3; 5; 9 |] });
  Alcotest.(check (array (pair int int))) "zero-hop path" [||]
    (Route.edges Route.{ nodes = [| 7 |] })

(* The one hop loop, driven by a table of steps: [Router.route]
   follows each [Forward] and returns the path on [Arrived]; a
   [Blocked] step raises [Stuck] after its [Stranded] span, and so does
   forwarding past the budget of n + 1 hops, after a [Stuck] span. *)
let test_router_route () =
  let module Span = Canon_telemetry.Span in
  let module Sink = Canon_telemetry.Sink in
  let module Trace = Canon_telemetry.Trace in
  let steps table u = List.assoc u table in
  let route table =
    Router.route ~kind:"table" ~level:(fun _ _ -> 0) ~n:3 ~src:0 ~key:77 (steps table)
  in
  (* The exception [table] raises and the outcome of the one span it
     offers the ambient trace. *)
  let stuck table =
    let sink = Sink.memory () in
    Trace.set_ambient (Some (Trace.create ~sink ()));
    let raised =
      Fun.protect
        ~finally:(fun () -> Trace.set_ambient None)
        (fun () ->
          match route table with
          | _ -> Alcotest.fail "expected Router.Stuck"
          | exception Router.Stuck { at; key; hops; path } -> (at, key, hops, path))
    in
    match Sink.spans sink with
    | [ span ] -> (raised, span.Span.outcome, Span.path span)
    | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)
  in
  Alcotest.(check (array int)) "arrived path" [| 0; 2; 1 |]
    (route Router.[ (0, Forward 2); (2, Forward 1); (1, Arrived) ]).Route.nodes;
  Alcotest.(check (array int)) "source that arrives at once" [| 0 |]
    (route Router.[ (0, Arrived) ]).Route.nodes;
  let (at, key, hops, path), outcome, span_path =
    stuck Router.[ (0, Forward 1); (1, Blocked) ]
  in
  Alcotest.(check (pair int int)) "blocked: stuck at, key" (1, 77) (at, key);
  Alcotest.(check int) "blocked: hops" 1 hops;
  Alcotest.(check (array int)) "blocked: path ends at the blocked node" [| 0; 1 |] path;
  Alcotest.(check bool) "blocked: stranded span" true (outcome = Span.Stranded);
  Alcotest.(check (array int)) "blocked: span path" [| 0; 1 |] span_path;
  let (at, key, hops, path), outcome, span_path =
    stuck Router.[ (0, Forward 1); (1, Forward 0) ]
  in
  Alcotest.(check (pair int int)) "loop: stuck at, key" (0, 77) (at, key);
  Alcotest.(check int) "loop: hops = budget" 4 hops;
  Alcotest.(check (array int)) "loop: partial path" [| 0; 1; 0; 1; 0 |] path;
  Alcotest.(check bool) "loop: stuck span" true (outcome = Span.Stuck);
  Alcotest.(check (array int)) "loop: span path" path span_path

(* Edge cases the message-level simulator leans on: zero-hop paths and
   fully-disjoint paths must yield well-defined (zero) metrics, never
   NaN or a division by zero. *)
let test_route_metric_edge_cases () =
  let zero = Route.{ nodes = [| 5 |] } in
  let multi = Route.{ nodes = [| 1; 2; 3; 4 |] } in
  let oracle _ _ = 1.0 in
  Alcotest.(check (float 1e-9)) "zero-hop path vs any reference" 0.0
    (Route.overlap_fraction ~reference:multi zero `Hops);
  Alcotest.(check (float 1e-9)) "zero-hop path, latency metric" 0.0
    (Route.overlap_fraction ~reference:multi zero (`Latency oracle));
  Alcotest.(check (float 1e-9)) "zero-hop reference" 0.0
    (Route.overlap_fraction ~reference:zero multi `Hops);
  Alcotest.(check (float 1e-9)) "both zero-hop" 0.0
    (Route.overlap_fraction ~reference:zero zero `Hops);
  let disjoint = Route.{ nodes = [| 10; 11; 12; 13 |] } in
  Alcotest.(check (float 1e-9)) "fully disjoint, hops" 0.0
    (Route.overlap_fraction ~reference:multi disjoint `Hops);
  Alcotest.(check (float 1e-9)) "fully disjoint, latency" 0.0
    (Route.overlap_fraction ~reference:multi disjoint (`Latency oracle));
  (* Same nodes, opposite direction: edges are directed, so no overlap. *)
  let reversed = Route.{ nodes = [| 4; 3; 2; 1 |] } in
  Alcotest.(check (float 1e-9)) "reversed path shares no directed edge" 0.0
    (Route.overlap_fraction ~reference:multi reversed `Hops);
  (* Zero-latency edges must not divide by zero. *)
  Alcotest.(check (float 1e-9)) "all-zero oracle" 0.0
    (Route.overlap_fraction ~reference:multi multi (`Latency (fun _ _ -> 0.0)));
  Alcotest.(check int) "zero-hop crossings" 0
    (Route.domain_crossings zero ~domain_of_node:(fun _ -> 0));
  Alcotest.(check int) "every hop crosses" (Route.hops multi)
    (Route.domain_crossings multi ~domain_of_node:Fun.id);
  Alcotest.(check int) "no hop crosses" 0
    (Route.domain_crossings multi ~domain_of_node:(fun _ -> 42))

let suites =
  [
    ( "ring",
      [
        Alcotest.test_case "searches" `Quick test_ring_searches;
        Alcotest.test_case "successor distance" `Quick test_ring_successor_distance;
        Alcotest.test_case "finger" `Quick test_ring_finger;
        Alcotest.test_case "arcs" `Quick test_ring_arcs;
        Alcotest.test_case "duplicate ids" `Quick test_ring_duplicate_ids;
        Alcotest.test_case "random in arc" `Quick test_ring_random_in_arc;
        QCheck_alcotest.to_alcotest prop_ring_predecessor_successor;
      ] );
    ( "chord",
      [
        Alcotest.test_case "successor links" `Quick test_chord_successor_links;
        Alcotest.test_case "routing reaches" `Quick test_chord_routing_reaches;
        Alcotest.test_case "key routing -> predecessor" `Quick test_chord_key_routing_hits_predecessor;
        Alcotest.test_case "degree bound (Thm 1)" `Quick test_chord_degree_bound;
        Alcotest.test_case "hops bound (Thm 4)" `Quick test_chord_hops_bound;
        Alcotest.test_case "deterministic" `Quick test_chord_deterministic;
      ] );
    ( "crescendo",
      [
        Alcotest.test_case "flat = chord" `Quick test_crescendo_flat_equals_chord;
        Alcotest.test_case "successor at every level" `Quick test_crescendo_successor_at_every_level;
        Alcotest.test_case "condition (b)" `Quick test_crescendo_condition_b;
        Alcotest.test_case "routing reaches" `Quick test_crescendo_routing_reaches;
        Alcotest.test_case "intra-domain locality" `Quick test_crescendo_intra_domain_locality;
        Alcotest.test_case "inter-domain convergence" `Quick test_crescendo_inter_domain_convergence;
        Alcotest.test_case "degree bound (Thm 2)" `Quick test_crescendo_degree_bound;
        Alcotest.test_case "hops bound (Thm 5)" `Quick test_crescendo_hops_bound;
        Alcotest.test_case "every builder on 0 and 1 nodes" `Quick test_builders_zero_and_one_node;
      ] );
    ( "symphony",
      [
        Alcotest.test_case "routing reaches" `Quick test_symphony_routing_reaches;
        Alcotest.test_case "degree" `Quick test_symphony_degree;
        Alcotest.test_case "harmonic distribution" `Quick test_symphony_harmonic_distribution;
        Alcotest.test_case "lookahead reaches and helps" `Quick test_lookahead_reaches_and_helps;
      ] );
    ( "cacophony",
      [
        Alcotest.test_case "routing reaches" `Quick test_cacophony_routing_reaches;
        Alcotest.test_case "locality" `Quick test_cacophony_locality;
        Alcotest.test_case "degree" `Quick test_cacophony_degree;
      ] );
    ( "nd-chord",
      [
        Alcotest.test_case "reaches + degree" `Quick test_nd_chord_reaches_and_degree;
        Alcotest.test_case "bucket structure" `Quick test_nd_chord_bucket_structure;
        Alcotest.test_case "nd-crescendo reaches" `Quick test_nd_crescendo_reaches;
        Alcotest.test_case "nd-crescendo locality" `Quick test_nd_crescendo_locality;
        Alcotest.test_case "nd-crescendo condition (b)" `Quick test_nd_crescendo_condition_b;
      ] );
    ( "xor-dhts",
      [
        Alcotest.test_case "kademlia reaches" `Quick test_kademlia_reaches;
        Alcotest.test_case "kademlia bucket invariant" `Quick test_kademlia_bucket_invariant;
        Alcotest.test_case "kandy reaches + locality" `Quick test_kandy_reaches_and_locality;
        Alcotest.test_case "kandy domain bucket invariant" `Quick test_kandy_domain_bucket_invariant;
        Alcotest.test_case "can deterministic + reaches" `Quick test_can_deterministic_and_reaches;
        Alcotest.test_case "can closest choice" `Quick test_can_closest_choice;
        Alcotest.test_case "can-can reaches" `Quick test_can_can_reaches;
        Alcotest.test_case "hierarchical xor degree" `Quick test_xor_hier_degree;
      ] );
    ( "proximity",
      [
        Alcotest.test_case "chord-prox reaches" `Quick test_chord_prox_reaches;
        Alcotest.test_case "chord-prox clique" `Quick test_chord_prox_clique;
        Alcotest.test_case "crescendo-prox reaches + locality" `Quick
          test_crescendo_prox_reaches_and_locality;
        Alcotest.test_case "crescendo-prox samples arcs under 64 whole" `Quick
          test_crescendo_prox_samples_small_arcs;
        Alcotest.test_case "group bits" `Quick test_group_bits;
      ] );
    ( "route",
      [
        Alcotest.test_case "metrics" `Quick test_route_metrics;
        Alcotest.test_case "overlap" `Quick test_route_overlap;
        Alcotest.test_case "domain crossings" `Quick test_route_domain_crossings;
        Alcotest.test_case "edges" `Quick test_route_edges;
        Alcotest.test_case "walk" `Quick test_router_route;
        Alcotest.test_case "zero-hop and disjoint edge cases" `Quick
          test_route_metric_edge_cases;
      ] );
  ]

(* --- Overlay validation -------------------------------------------- *)

let test_overlay_validation () =
  let pop = make_pop ~seed:99 ~fanout:3 ~levels:1 ~n:4 () in
  let rejects what msg links =
    Alcotest.check_raises what (Invalid_argument ("Overlay.create: " ^ msg)) (fun () ->
        ignore (Overlay.create pop ~links))
  in
  rejects "self link" "self-link" [| [| 0 |]; [||]; [||]; [||] |];
  rejects "duplicate" "duplicate link" [| [| 1; 1 |]; [||]; [||]; [||] |];
  rejects "duplicate, not adjacent" "duplicate link" [| [||]; [| 2; 0; 2 |]; [||]; [||] |];
  rejects "out of range" "target out of range" [| [| 9 |]; [||]; [||]; [||] |];
  rejects "negative target" "target out of range" [| [||]; [||]; [| -1 |]; [||] |];
  rejects "size mismatch" "adjacency size mismatch" [| [||] |];
  (* The same target from two nodes is no duplicate. *)
  ignore (Overlay.create pop ~links:[| [| 3 |]; [| 3 |]; [| 3 |]; [||] |]);
  (* The first offending link decides, in node order, then link order. *)
  rejects "duplicate before a later self-link" "duplicate link"
    [| [| 1; 1 |]; [| 1 |]; [||]; [||] |];
  rejects "self-link before a later duplicate" "self-link" [| [| 0; 1; 1 |]; [||]; [||]; [||] |];
  rejects "out of range before a later self-link" "target out of range"
    [| [| 7; 0 |]; [||]; [||]; [||] |];
  rejects "self-link before a later out of range" "self-link" [| [||]; [| 1; 7 |]; [||]; [||] |];
  rejects "out of range before a later duplicate" "target out of range"
    [| [| 2; 9; 2 |]; [||]; [||]; [||] |];
  rejects "duplicate before a later out of range" "duplicate link"
    [| [||]; [||]; [| 3; 3; 9 |]; [||] |];
  let ov = Overlay.create pop ~links:[| [| 1 |]; [| 0; 2 |]; [||]; [||] |] in
  Alcotest.(check int) "degree" 2 (Array.length (Overlay.links ov 1));
  Alcotest.(check (float 1e-9)) "mean degree" 0.75 (Overlay.mean_degree ov);
  let count = ref 0 in
  Overlay.iter_links ov (fun _ _ -> incr count);
  Alcotest.(check int) "iter_links count" 3 !count

let test_overlay_degrees () =
  let pop = make_pop ~seed:99 ~fanout:3 ~levels:1 ~n:4 () in
  let ov = Overlay.create pop ~links:[| [| 1 |]; [| 0; 2 |]; [||]; [||] |] in
  Alcotest.(check (array int)) "small overlay" [| 1; 2; 0; 0 |] (Overlay.degrees ov);
  let _, chord = Lazy.force chord_fixture in
  let degrees = Overlay.degrees chord in
  Array.iteri
    (fun v d -> Alcotest.(check int) "degree = row length" (Array.length (Overlay.links chord v)) d)
    degrees;
  let total = Array.fold_left ( + ) 0 degrees in
  let count = ref 0 in
  Overlay.iter_links chord (fun _ _ -> incr count);
  Alcotest.(check int) "degrees sum = links" !count total;
  Alcotest.(check (float 1e-9)) "mean degree"
    (Float.of_int total /. Float.of_int (Overlay.size chord))
    (Overlay.mean_degree chord)

(* Topology-attached populations: the same ids and uniform placement as
   [Population.create] on the same seed, plus each node's attachment
   point read off its leaf. *)
let test_population_with_attach () =
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:3 ~levels:2) in
  let pop =
    Population.create_with_attach (Rng.create 12) ~tree ~leaf_to_attach:(fun l -> 1000 + l) ~n:900
  in
  let plain = Population.create (Rng.create 12) ~tree ~policy:Placement.Uniform ~n:900 in
  Alcotest.(check (array int)) "same ids" plain.Population.ids pop.Population.ids;
  Alcotest.(check (array int)) "same leaves" plain.Population.leaf_of_node
    pop.Population.leaf_of_node;
  match pop.Population.attach with
  | None -> Alcotest.fail "no attachment points"
  | Some attach ->
      Alcotest.(check (array int)) "attach = leaf_to_attach leaf"
        (Array.map (fun l -> 1000 + l) pop.Population.leaf_of_node)
        attach

let validation_suites =
  [
    ( "overlay",
      [
        Alcotest.test_case "validation" `Quick test_overlay_validation;
        Alcotest.test_case "degrees" `Quick test_overlay_degrees;
        Alcotest.test_case "population with attachment points" `Quick
          test_population_with_attach;
      ] );
  ]

(* --- Canon's merge, one link family at a time ---------------------- *)

(* Node 0 (id 0) in a leaf ring {0, 3} and the global ring of all four
   nodes. The rule links the farthest member below the cap: in the leaf
   ring that is node 3, the successor already linked before the rule;
   in the global ring, capped at node 0's leaf successor gap (1000), it
   is node 2, and node 1 then joins as that ring's successor. The row
   is the levels root first. *)
let test_canonical_ring_row () =
  let ids = [| 0; 10; 20; 1000 |] in
  let tree = Domain_tree.of_spec (Domain_tree.Node [ Domain_tree.Leaf; Domain_tree.Leaf ]) in
  let leaves = Domain_tree.leaves tree in
  let pop =
    { Population.ids; tree; leaf_of_node = Array.map (fun l -> leaves.(l)) [| 0; 1; 1; 0 |];
      attach = None }
  in
  let caps = ref [] in
  let farthest_below ring id ~cap buf ~from len =
    caps := cap :: !caps;
    let best = ref None in
    Array.iter
      (fun v ->
        let d = Id.distance id ids.(v) in
        if d > 0 && d < cap then
          match !best with
          | Some (bd, _) when bd >= d -> ()
          | _ -> best := Some (d, v))
      (Ring.members ring);
    match !best with Some (_, v) -> Canonical.add buf ~from len v | None -> len
  in
  let row = Canonical.successor_row (Rings.build pop) farthest_below 0 in
  Alcotest.(check (array int)) "row order" [| 2; 1; 3 |] row;
  Alcotest.(check (list int)) "caps" [ Id.space; 1000 ] (List.rev !caps);
  let alone = { Population.ids = [| 0 |]; tree; leaf_of_node = [| leaves.(0) |]; attach = None } in
  caps := [];
  Alcotest.(check (array int)) "a singleton ring adds nothing" [||]
    (Canonical.successor_row (Rings.build alone) farthest_below 0);
  Alcotest.(check (list int)) "and asks no rule" [] !caps

(* Each slot is asked of the rings in chain order until one fills it,
   and never again; slots no ring fills are left out of the row. *)
let test_canonical_slot_row () =
  let tree = Domain_tree.of_spec (Domain_tree.Node [ Domain_tree.Leaf; Domain_tree.Leaf ]) in
  let leaves = Domain_tree.leaves tree in
  let pop =
    { Population.ids = [| 0; 10; 20 |]; tree;
      leaf_of_node = Array.map (fun l -> leaves.(l)) [| 0; 0; 1 |]; attach = None }
  in
  let rings = Rings.build pop in
  let asked = ref [] in
  let pick ring s =
    let level = if ring == Rings.ring rings leaves.(0) then 0 else 1 in
    asked := (level, s) :: !asked;
    match (level, s) with
    | 0, 0 -> Some 5
    | 0, 2 -> Some 7
    | 1, 0 -> Some 9
    | 1, 1 -> Some 8
    | _ -> None
  in
  let row = Canonical.slot_row rings 0 ~slots:4 pick in
  Alcotest.(check (array int)) "row in slot order" [| 5; 8; 7 |] row;
  Alcotest.(check (list (pair int int)))
    "each open slot asked once a ring"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 1); (1, 3) ]
    (List.rev !asked)

(* [flat] hands every node the rings of a one-domain hierarchy over the
   whole population; [hierarchical] hands it the rings it was given,
   whose chains are the domain chains, leaf first. Each applies [row]
   to its rings once. *)
let test_canonical_chains () =
  let pop = make_pop ~seed:21 ~fanout:3 ~levels:2 ~n:60 () in
  let rings = Rings.build pop in
  let chain_sizes rings v = Array.map (fun d -> Ring.size (Rings.ring rings d)) (Rings.chain rings v) in
  let seen = Array.make 60 [||] and given = ref [] in
  let record r =
    given := r :: !given;
    fun v ->
      seen.(v) <- chain_sizes r v;
      [||]
  in
  ignore (Canonical.flat pop record);
  Alcotest.(check int) "flat: row applied once" 1 (List.length !given);
  Array.iter (fun sizes -> Alcotest.(check (array int)) "flat chain" [| 60 |] sizes) seen;
  given := [];
  ignore (Canonical.hierarchical rings record);
  Alcotest.(check bool) "hierarchical: row applied once, to the rings" true
    (match !given with [ r ] -> r == rings | _ -> false);
  Array.iteri
    (fun v sizes ->
      Alcotest.(check (array int)) "domain chain" (chain_sizes rings v) sizes;
      Alcotest.(check int) "root ring last" 60 sizes.(Array.length sizes - 1))
    seen

let canonical_suites =
  [
    ( "canonical",
      [
        Alcotest.test_case "ring_row order and caps" `Quick test_canonical_ring_row;
        Alcotest.test_case "slot_row fills each slot once" `Quick test_canonical_slot_row;
        Alcotest.test_case "flat and hierarchical chains" `Quick test_canonical_chains;
      ] );
  ]

let suites = suites @ validation_suites @ canonical_suites
