(* Tests for the replication layer: Replica_set placement, the
   Replicated_store write-through / read-repair protocol, and the
   durability containment claim — with sibling-spread
   and k >= 2, a whole-leaf-domain outage loses no key, while flat
   k-successor replication (all copies inside the storage domain) does. *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_storage
open Canon_net
module Rng = Canon_rng.Rng
module Metrics = Canon_telemetry.Metrics

let oracle u v = if u = v then 0.0 else 10.0 +. Float.of_int (((u * 13) + (v * 7)) mod 20)

let fast_policy =
  {
    Rpc.timeout_ms = 100.0;
    max_retries = 1;
    backoff_base_ms = 10.0;
    backoff_factor = 2.0;
    jitter = 0.0;
    deadline_ms = 60_000.0;
  }

let make_universe ?(fanout = 4) ?(levels = 2) ~n seed =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout ~levels) in
  Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n

let sorted xs =
  let xs = Array.to_list xs in
  List.sort compare xs

let counter name = Metrics.value (Metrics.counter name)

(* --- Replica_set --------------------------------------------------- *)

let test_replica_set_validates () =
  let pop = make_universe ~n:20 3 in
  let rings = Rings.build pop in
  Alcotest.check_raises "k < 1" (Invalid_argument "Replica_set.compute: k must be >= 1")
    (fun () ->
      ignore (Replica_set.compute rings ~spread:Replica_set.Flat ~k:0 ~domain:0 ~key:5));
  Alcotest.check_raises "bad domain"
    (Invalid_argument "Replica_set.compute: domain out of range") (fun () ->
      ignore
        (Replica_set.compute rings ~spread:Replica_set.Sibling ~k:2 ~domain:999 ~key:5))

let test_flat_k1_is_responsible () =
  let pop = make_universe ~n:60 5 in
  let rings = Rings.build pop in
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    let node = Rng.int_below rng 60 in
    let domain = pop.Population.leaf_of_node.(node) in
    let key = Id.random rng in
    let holders = Replica_set.compute rings ~spread:Replica_set.Flat ~k:1 ~domain ~key in
    Alcotest.(check (list int)) "primary = responsible"
      [ Rings.responsible rings ~domain ~key ]
      (Array.to_list holders)
  done

let test_flat_stays_inside_domain () =
  let pop = make_universe ~n:120 7 in
  let rings = Rings.build pop in
  let rng = Rng.create 8 in
  let tree = pop.Population.tree in
  for _ = 1 to 30 do
    let node = Rng.int_below rng 120 in
    let domain = pop.Population.leaf_of_node.(node) in
    let key = Id.random rng in
    let holders = Replica_set.compute rings ~spread:Replica_set.Flat ~k:3 ~domain ~key in
    Array.iter
      (fun h ->
        if not (Domain_tree.is_ancestor tree ~anc:domain ~desc:pop.Population.leaf_of_node.(h))
        then Alcotest.failf "flat holder %d escaped the storage domain" h)
      holders
  done

let test_sibling_nearest_first () =
  let pop = make_universe ~fanout:3 ~levels:2 ~n:120 9 in
  let rings = Rings.build pop in
  let tree = pop.Population.tree in
  let rng = Rng.create 10 in
  for _ = 1 to 30 do
    let node = Rng.int_below rng 120 in
    let domain = pop.Population.leaf_of_node.(node) in
    let key = Id.random rng in
    let holders =
      Replica_set.compute rings ~spread:Replica_set.Sibling ~k:2 ~domain ~key
    in
    Alcotest.(check int) "two holders" 2 (Array.length holders);
    let l0 = pop.Population.leaf_of_node.(holders.(0))
    and l1 = pop.Population.leaf_of_node.(holders.(1)) in
    if l0 = l1 then Alcotest.fail "sibling replicas share a leaf";
    (* Fanout-3 uniform tree and >> 3 nodes per parent: some leaf under
       the same parent is populated, so the spread must stay under it. *)
    let parent = Domain_tree.parent tree l0 in
    let sibling_populated =
      Array.exists
        (fun c -> c <> l0 && Ring.size (Rings.ring rings c) > 0)
        (Domain_tree.children tree parent)
    in
    if sibling_populated && Domain_tree.parent tree l1 <> parent then
      Alcotest.failf "second replica leaf %d is not the nearest populated sibling" l1
  done

let test_sibling_skips_dead_leaves () =
  let pop = make_universe ~fanout:3 ~levels:2 ~n:120 11 in
  let rings = Rings.build pop in
  let rng = Rng.create 12 in
  let node = Rng.int_below rng 120 in
  let domain = pop.Population.leaf_of_node.(node) in
  let key = Id.random rng in
  let holders = Replica_set.compute rings ~spread:Replica_set.Sibling ~k:2 ~domain ~key in
  let second_leaf = pop.Population.leaf_of_node.(holders.(1)) in
  (* Kill the whole leaf the second replica lives in: placement must
     re-spread into a different leaf, never fall back inside it. *)
  let alive v = pop.Population.leaf_of_node.(v) <> second_leaf in
  let holders' =
    Replica_set.compute ~alive rings ~spread:Replica_set.Sibling ~k:2 ~domain ~key
  in
  Alcotest.(check int) "still two holders" 2 (Array.length holders');
  Array.iter
    (fun h ->
      if pop.Population.leaf_of_node.(h) = second_leaf then
        Alcotest.fail "placed a replica in a dead leaf")
    holders'

let test_sibling_single_leaf_degrades_to_flat () =
  let pop = make_universe ~fanout:1 ~levels:1 ~n:40 13 in
  let rings = Rings.build pop in
  let rng = Rng.create 14 in
  for _ = 1 to 20 do
    let key = Id.random rng in
    let domain = pop.Population.leaf_of_node.(0) in
    let flat = Replica_set.compute rings ~spread:Replica_set.Flat ~k:3 ~domain ~key in
    let sib = Replica_set.compute rings ~spread:Replica_set.Sibling ~k:3 ~domain ~key in
    Alcotest.(check (list int)) "one leaf: sibling = flat" (Array.to_list flat)
      (Array.to_list sib)
  done

(* --- Replicated_store, direct mode --------------------------------- *)

let test_store_validates () =
  let pop = make_universe ~n:30 15 in
  let all = Array.init 30 Fun.id in
  let absent = 7 in
  let present = Array.of_list (List.filter (( <> ) absent) (Array.to_list all)) in
  let rings = Rings.build_partial pop ~present in
  Alcotest.check_raises "k < 1" (Invalid_argument "Replicated_store.create: k must be >= 1")
    (fun () -> ignore (Replicated_store.create ~k:0 rings));
  let store = Replicated_store.create ~k:2 rings in
  Alcotest.check_raises "absent writer"
    (Invalid_argument "Replicated_store.put: writer not live") (fun () ->
      ignore
        (Replicated_store.put store ~writer:absent ~key:1 ~value:"x"
           ~storage_domain:(pop.Population.leaf_of_node.(absent))));
  let writer = present.(0) in
  let foreign_leaf =
    let leaves = Domain_tree.leaves pop.Population.tree in
    let mine = pop.Population.leaf_of_node.(writer) in
    Array.to_list leaves |> List.find (( <> ) mine)
  in
  Alcotest.check_raises "storage domain excludes writer"
    (Invalid_argument "Replicated_store.put: storage domain does not contain the writer")
    (fun () ->
      ignore
        (Replicated_store.put store ~writer ~key:1 ~value:"x"
           ~storage_domain:foreign_leaf));
  let root = Domain_tree.root pop.Population.tree in
  ignore (Replicated_store.put store ~writer ~key:1 ~value:"x" ~storage_domain:root);
  Alcotest.check_raises "storage domain rebind"
    (Invalid_argument "Replicated_store.put: key already bound to another storage domain")
    (fun () ->
      ignore
        (Replicated_store.put store ~writer ~key:1 ~value:"y"
           ~storage_domain:(pop.Population.leaf_of_node.(writer))));
  Alcotest.check_raises "absent querier"
    (Invalid_argument "Replicated_store.get: querier not live") (fun () ->
      ignore (Replicated_store.get store ~querier:absent ~key:1))

(* A net must route over the store's own population: one over another
   population of the same size, or over a copy of the same one, would
   send every replica lookup to the wrong ids. *)
let test_store_rejects_foreign_net () =
  let pop = make_universe ~n:30 17 in
  let rings = Rings.build pop in
  let net_over pop =
    Net.create ~policy:fast_policy ~rng:(Rng.create 18) ~node_latency:oracle
      (Crescendo.build (Rings.build pop))
  in
  let rejects what pop =
    Alcotest.check_raises what
      (Invalid_argument "Replicated_store.create: net over a different population")
      (fun () -> ignore (Replicated_store.create ~net:(net_over pop) rings))
  in
  rejects "another population, same size" (make_universe ~n:30 19);
  rejects "a copy of the population" { pop with Population.ids = pop.Population.ids };
  let store =
    Replicated_store.create ~net:(Net.create ~rng:(Rng.create 18) ~node_latency:oracle
      (Crescendo.build rings)) rings
  in
  Alcotest.(check int) "own population accepted" 0 (Replicated_store.version store ~key:1)

let test_put_get_versions () =
  let pop = make_universe ~n:50 16 in
  let rings = Rings.build pop in
  let store = Replicated_store.create ~k:3 ~spread:Replica_set.Sibling rings in
  let reads0 = counter "replication.reads" in
  let failures0 = counter "replication.read_failures" in
  let key = 12345 in
  Alcotest.(check (option string)) "unknown key" None
    (Replicated_store.get store ~querier:0 ~key);
  Alcotest.(check int) "read failure counted" (failures0 + 1)
    (counter "replication.read_failures");
  let domain = pop.Population.leaf_of_node.(4) in
  let acks = Replicated_store.put store ~writer:4 ~key ~value:"v1" ~storage_domain:domain in
  Alcotest.(check int) "k acks" 3 acks;
  Alcotest.(check int) "version 1" 1 (Replicated_store.version store ~key);
  ignore (Replicated_store.put store ~writer:4 ~key ~value:"v2" ~storage_domain:domain);
  Alcotest.(check int) "version 2" 2 (Replicated_store.version store ~key);
  Alcotest.(check (option string)) "latest value" (Some "v2")
    (Replicated_store.get store ~querier:40 ~key);
  Alcotest.(check (list int)) "copies = holders"
    (sorted (Replicated_store.holders store ~key))
    (Array.to_list (Replicated_store.copies store ~key));
  Alcotest.(check int) "reads counted" (reads0 + 2) (counter "replication.reads")

(* --- read-repair over the simulated network ------------------------ *)

(* The pinned hand-counted scenario: a holder crashes, misses a write,
   revives — the next read returns the fresh value, repairs exactly that
   one stale replica, and drops the stand-in's now-superfluous copy;
   a second read touches nothing. *)
let test_read_repair_pinned_metrics () =
  let pop = make_universe ~n:24 25 in
  let rings = Rings.build pop in
  let plan = Fault_plan.none ~n:24 in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 26) ~node_latency:oracle
      (Crescendo.build rings)
  in
  let store = Replicated_store.create ~net ~k:2 ~spread:Replica_set.Sibling rings in
  let key = Id.random (Rng.create 27) in
  let holders = Replicated_store.holders store ~key in
  (* unknown key: no placement yet *)
  Alcotest.(check int) "no placement before first put" 0 (Array.length holders);
  (* Write from the key's primary so reachability is trivial. *)
  let probe = Replica_set.compute rings ~spread:Replica_set.Sibling ~k:2 ~domain:0 ~key in
  let a = probe.(0) and b = probe.(1) in
  let acks =
    Replicated_store.put store ~writer:a ~key ~value:"v1" ~storage_domain:0
  in
  Alcotest.(check int) "both replicas written" 2 acks;
  (* b crashes and misses version 2; a stand-in c takes its place. *)
  Fault_plan.crash plan b;
  let acks2 = Replicated_store.put store ~writer:a ~key ~value:"v2" ~storage_domain:0 in
  Alcotest.(check int) "stand-in written" 2 acks2;
  let c =
    match List.filter (fun v -> v <> a && v <> b) (sorted (Replicated_store.copies store ~key)) with
    | [ c ] -> c
    | l -> Alcotest.failf "expected one stand-in, got %d" (List.length l)
  in
  Alcotest.(check (option (pair string int))) "b stale at v1" (Some ("v1", 1))
    (Replicated_store.stored store ~node:b ~key);
  (* b revives: the next read finds v2, repairs b, GCs c. *)
  Fault_plan.revive plan b;
  let reads0 = counter "replication.reads"
  and stale0 = counter "replication.stale_reads"
  and repairs0 = counter "replication.read_repairs"
  and gc0 = counter "replication.gc_copies" in
  Alcotest.(check (option string)) "read returns the fresh value" (Some "v2")
    (Replicated_store.get store ~querier:a ~key);
  Alcotest.(check int) "one read" (reads0 + 1) (counter "replication.reads");
  Alcotest.(check int) "one stale read" (stale0 + 1) (counter "replication.stale_reads");
  Alcotest.(check int) "one repair" (repairs0 + 1) (counter "replication.read_repairs");
  Alcotest.(check int) "stand-in collected" (gc0 + 1) (counter "replication.gc_copies");
  Alcotest.(check (option (pair string int))) "b repaired to v2" (Some ("v2", 2))
    (Replicated_store.stored store ~node:b ~key);
  Alcotest.(check (option (pair string int))) "c dropped its copy" None
    (Replicated_store.stored store ~node:c ~key);
  Alcotest.(check (list int)) "copies back to the ideal set" (List.sort compare [ a; b ])
    (Array.to_list (Replicated_store.copies store ~key));
  (* Second read: nothing stale, nothing to repair. *)
  Alcotest.(check (option string)) "second read" (Some "v2")
    (Replicated_store.get store ~querier:a ~key);
  Alcotest.(check int) "no further stale reads" (stale0 + 1)
    (counter "replication.stale_reads");
  Alcotest.(check int) "no further repairs" (repairs0 + 1)
    (counter "replication.read_repairs");
  Alcotest.(check int) "no further GC" (gc0 + 1) (counter "replication.gc_copies")

(* A read that reaches no current holder must not collect an ex-holder's
   copy — it may be the only copy of the acknowledged version. GC waits
   until a read re-homes the fresh version on a reachable holder. *)
let test_gc_waits_for_rehoming () =
  let pop = make_universe ~n:24 31 in
  let rings = Rings.build pop in
  let plan = Fault_plan.none ~n:24 in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 32) ~node_latency:oracle
      (Crescendo.build rings)
  in
  let store = Replicated_store.create ~net ~k:2 ~spread:Replica_set.Sibling rings in
  let key = Id.random (Rng.create 33) in
  let probe = Replica_set.compute rings ~spread:Replica_set.Sibling ~k:2 ~domain:0 ~key in
  let a = probe.(0) and b = probe.(1) in
  ignore (Replicated_store.put store ~writer:a ~key ~value:"v1" ~storage_domain:0);
  (* b crashes and misses version 2; a stand-in c takes its place. *)
  Fault_plan.crash plan b;
  ignore (Replicated_store.put store ~writer:a ~key ~value:"v2" ~storage_domain:0);
  let c =
    match
      List.filter (fun v -> v <> a && v <> b) (sorted (Replicated_store.copies store ~key))
    with
    | [ c ] -> c
    | l -> Alcotest.failf "expected one stand-in, got %d" (List.length l)
  in
  Fault_plan.revive plan b;
  (* Total message loss: current holders a and b are live but
     unreachable; ex-holder c still reads its own copy. *)
  Fault_plan.set_loss plan 1.0;
  let gc0 = counter "replication.gc_copies"
  and fails0 = counter "replication.read_failures" in
  Alcotest.(check (option string)) "read served from the ex-holder" (Some "v2")
    (Replicated_store.get store ~querier:c ~key);
  Alcotest.(check int) "no read failure" fails0 (counter "replication.read_failures");
  Alcotest.(check int) "nothing collected while holders were unreachable" gc0
    (counter "replication.gc_copies");
  Alcotest.(check (option (pair string int))) "ex-holder keeps its copy" (Some ("v2", 2))
    (Replicated_store.stored store ~node:c ~key);
  (* Loss lifts: the next read re-homes v2 on the holders, then GCs c. *)
  Fault_plan.set_loss plan 0.0;
  Alcotest.(check (option string)) "read after recovery" (Some "v2")
    (Replicated_store.get store ~querier:a ~key);
  Alcotest.(check int) "stand-in collected after re-homing" (gc0 + 1)
    (counter "replication.gc_copies");
  Alcotest.(check (option (pair string int))) "ex-holder copy dropped" None
    (Replicated_store.stored store ~node:c ~key);
  Alcotest.(check (list int)) "copies back to the ideal set" (List.sort compare [ a; b ])
    (Array.to_list (Replicated_store.copies store ~key))

(* --- containment (the acceptance-criterion test) -------------------- *)

let publish_keys store pop ~count ~seed =
  let rng = Rng.create seed in
  let n = Population.size pop in
  List.init count (fun _ ->
      let writer = Rng.int_below rng n in
      let key = Id.random rng in
      let domain = pop.Population.leaf_of_node.(writer) in
      ignore (Replicated_store.put store ~writer ~key ~value:"d" ~storage_domain:domain);
      (key, domain))

let test_crash_domain_containment () =
  let pop = make_universe ~fanout:4 ~levels:2 ~n:200 28 in
  let rings = Rings.build pop in
  let sibling = Replicated_store.create ~k:2 ~spread:Replica_set.Sibling rings in
  let flat = Replicated_store.create ~k:2 ~spread:Replica_set.Flat rings in
  let keys = publish_keys sibling pop ~count:100 ~seed:29 in
  ignore (publish_keys flat pop ~count:100 ~seed:29);
  let tree = pop.Population.tree in
  let lost store ~outage =
    List.length
      (List.filter
         (fun (key, _) ->
           Array.for_all
             (fun c ->
               Domain_tree.is_ancestor tree ~anc:outage
                 ~desc:pop.Population.leaf_of_node.(c))
             (Replicated_store.copies store ~key))
         keys)
  in
  (* Sibling spread, k = 2: the outage of ANY single leaf domain loses
     nothing. *)
  Array.iter
    (fun leaf ->
      let l = lost sibling ~outage:leaf in
      if l > 0 then Alcotest.failf "sibling spread lost %d keys to leaf %d outage" l leaf)
    (Domain_tree.leaves tree);
  (* Flat k-successor keeps every copy inside the (leaf) storage domain:
     crashing the leaf that stores the first key must lose it. *)
  let _, loaded_leaf = List.hd keys in
  let l = lost flat ~outage:loaded_leaf in
  Alcotest.(check bool) "flat loses keys to its own-domain outage" true (l > 0)

(* Same claim on the live read path: with one leaf domain down, every
   key is still readable through the simulated network. *)
let test_outage_read_path () =
  let pop = make_universe ~fanout:4 ~levels:2 ~n:200 30 in
  let rings = Rings.build pop in
  let plan = Fault_plan.none ~n:200 in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 31) ~node_latency:oracle
      (Crescendo.build rings)
  in
  let store = Replicated_store.create ~net ~k:2 ~spread:Replica_set.Sibling rings in
  let keys = publish_keys store pop ~count:30 ~seed:32 in
  let victim = pop.Population.leaf_of_node.(0) in
  Fault_plan.crash_domain plan pop ~domain:victim;
  let rng = Rng.create 33 in
  let live =
    Array.of_list
      (List.filter (fun v -> not (Fault_plan.is_crashed plan v)) (List.init 200 Fun.id))
  in
  List.iter
    (fun (key, _) ->
      let querier = Rng.pick rng live in
      match Replicated_store.get store ~querier ~key with
      | Some "d" -> ()
      | Some v -> Alcotest.failf "key %d: read %S" key v
      | None -> Alcotest.failf "key %d unreadable during the outage" key)
    keys

let suites =
  [
    ( "replica-set",
      [
        Alcotest.test_case "validation" `Quick test_replica_set_validates;
        Alcotest.test_case "flat k=1 = responsible node" `Quick test_flat_k1_is_responsible;
        Alcotest.test_case "flat stays inside the domain" `Quick test_flat_stays_inside_domain;
        Alcotest.test_case "sibling spreads to the nearest sibling leaf" `Quick
          test_sibling_nearest_first;
        Alcotest.test_case "sibling skips dead leaves" `Quick test_sibling_skips_dead_leaves;
        Alcotest.test_case "single leaf degrades to flat" `Quick
          test_sibling_single_leaf_degrades_to_flat;
      ] );
    ( "replicated-store",
      [
        Alcotest.test_case "validation" `Quick test_store_validates;
        Alcotest.test_case "net over another population rejected" `Quick
          test_store_rejects_foreign_net;
        Alcotest.test_case "put/get with versions" `Quick test_put_get_versions;
        Alcotest.test_case "read-repair: pinned hand-counted metrics" `Quick
          test_read_repair_pinned_metrics;
        Alcotest.test_case "GC spares the last reachable copy" `Quick
          test_gc_waits_for_rehoming;
      ] );
    ( "durability-containment",
      [
        Alcotest.test_case "crash_domain loses 0 keys with sibling spread" `Quick
          test_crash_domain_containment;
        Alcotest.test_case "reads survive a whole-domain outage" `Quick
          test_outage_read_path;
      ] );
  ]
