(* A small property harness for the replication layer: deterministic
   seeded generators over random (ragged) hierarchies, populations and
   fault plans, with shrinking by halving the node count.

   Unlike the QCheck properties elsewhere in the suite, these scenarios
   need several coupled structures (tree, population, rings, crash set)
   derived from one seed, and the natural shrink is "same shape, half
   the nodes" — so the harness re-derives the whole scenario at n/2
   rather than shrinking the structures independently. Every check is
   pinned to an explicit seed; failures report the case seed and the
   smallest failing population size. *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_storage
open Canon_net
module Rng = Canon_rng.Rng

type scenario = {
  case_seed : int;
  n : int;
  tree : Domain_tree.t;
  pop : Population.t;
  rings : Rings.t;
}

(* Random ragged tree: depth at most 3, fanout 2..4, subtrees collapse
   into leaves with probability rising with depth. *)
let rec gen_spec rng ~depth =
  if depth >= 3 || (depth > 0 && Rng.float rng < 0.3 *. Float.of_int depth) then
    Domain_tree.Leaf
  else
    let fanout = 2 + Rng.int_below rng 3 in
    Domain_tree.Node (List.init fanout (fun _ -> gen_spec rng ~depth:(depth + 1)))

let scenario ~case_seed ~n =
  let rng = Rng.create case_seed in
  let tree = Domain_tree.of_spec (gen_spec rng ~depth:0) in
  let policy =
    if Rng.bool rng then Canon_hierarchy.Placement.Uniform
    else Canon_hierarchy.Placement.Zipfian 1.25
  in
  let pop = Population.create rng ~tree ~policy ~n in
  { case_seed; n; tree; pop; rings = Rings.build pop }

(* A crash set over the population: each node independently with a
   random probability in [0, 0.5), at least one node left standing. *)
let gen_crashes rng ~n =
  let crashed = Array.make n false in
  let frac = Rng.float rng *. 0.5 in
  for v = 0 to n - 1 do
    if Rng.float rng < frac then crashed.(v) <- true
  done;
  if Array.for_all Fun.id crashed then crashed.(Rng.int_below rng n) <- false;
  crashed

(* A random storage domain guaranteed non-empty: an ancestor of a random
   node's leaf, at a random depth. Also returns the node. *)
let gen_domain rng sc =
  let node = Rng.int_below rng sc.n in
  let leaf = sc.pop.Population.leaf_of_node.(node) in
  let depth = Rng.int_below rng (Domain_tree.depth sc.tree leaf + 1) in
  (node, Domain_tree.ancestor_at_depth sc.tree leaf depth)

(* Run [prop] on [count] scenarios derived from [seed]; on failure,
   halve the node count (same case seed) while the property still fails
   and report the smallest failing case. *)
let check ~count ~seed ~min_n ~max_n prop () =
  for case = 0 to count - 1 do
    let case_seed = seed + (1000 * case) in
    let n = min_n + Rng.int_below (Rng.create (case_seed lxor 0x5bd1)) (max_n - min_n + 1) in
    let fails n =
      match prop (scenario ~case_seed ~n) with
      | Ok () -> None
      | Error msg -> Some msg
      | exception e -> Some (Printexc.to_string e)
    in
    match fails n with
    | None -> ()
    | Some first_msg ->
        let rec shrink n msg =
          let half = n / 2 in
          if half < min_n then (n, msg)
          else match fails half with Some msg' -> shrink half msg' | None -> (n, msg)
        in
        let smallest, msg = shrink n first_msg in
        Alcotest.failf "case seed %d: fails at n = %d (shrunk from n = %d): %s"
          case_seed smallest n msg
  done

let distinct_count xs =
  List.length (List.sort_uniq compare (Array.to_list xs))

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- placement ----------------------------------------------------- *)

(* Flat: |holders| = min k (live members of the domain ring), all live,
   all distinct. *)
let prop_flat_count sc =
  let rng = Rng.create (sc.case_seed + 1) in
  let crashed = gen_crashes rng ~n:sc.n in
  let alive v = not crashed.(v) in
  let k = 1 + Rng.int_below rng 6 in
  let _, domain = gen_domain rng sc in
  let key = Id.random rng in
  let holders =
    Replica_set.compute ~alive sc.rings ~spread:Replica_set.Flat ~k ~domain ~key
  in
  let live_members =
    Array.fold_left
      (fun acc v -> if alive v then acc + 1 else acc)
      0
      (Ring.members (Rings.ring sc.rings domain))
  in
  if distinct_count holders <> Array.length holders then err "duplicate holders"
  else if not (Array.for_all alive holders) then err "crashed holder"
  else if Array.length holders <> min k live_members then
    err "flat: %d holders, expected min %d %d" (Array.length holders) k live_members
  else Ok ()

(* Sibling: the universe is every live node (the global-ring fallback
   guarantees it), so |holders| = min k (all live). *)
let prop_sibling_count sc =
  let rng = Rng.create (sc.case_seed + 2) in
  let crashed = gen_crashes rng ~n:sc.n in
  let alive v = not crashed.(v) in
  let k = 1 + Rng.int_below rng 6 in
  let _, domain = gen_domain rng sc in
  let key = Id.random rng in
  let holders =
    Replica_set.compute ~alive sc.rings ~spread:Replica_set.Sibling ~k ~domain ~key
  in
  let live = Array.fold_left (fun acc c -> if c then acc else acc + 1) 0 crashed in
  if distinct_count holders <> Array.length holders then err "duplicate holders"
  else if not (Array.for_all alive holders) then err "crashed holder"
  else if Array.length holders <> min k live then
    err "sibling: %d holders, expected min %d %d" (Array.length holders) k live
  else Ok ()

(* No two forced-spread replicas share a leaf domain: the holders occupy
   min |holders| (leaf domains with a live node) distinct leaves. *)
let prop_sibling_distinct_leaves sc =
  let rng = Rng.create (sc.case_seed + 3) in
  let crashed = gen_crashes rng ~n:sc.n in
  let alive v = not crashed.(v) in
  let k = 1 + Rng.int_below rng 6 in
  let _, domain = gen_domain rng sc in
  let key = Id.random rng in
  let holders =
    Replica_set.compute ~alive sc.rings ~spread:Replica_set.Sibling ~k ~domain ~key
  in
  let holder_leaves = Array.map (fun v -> sc.pop.Population.leaf_of_node.(v)) holders in
  let live_leaves =
    Array.fold_left
      (fun acc l ->
        if Array.exists alive (Ring.members (Rings.ring sc.rings l)) then acc + 1
        else acc)
      0 (Domain_tree.leaves sc.tree)
  in
  let expected = min (Array.length holders) live_leaves in
  if distinct_count holder_leaves <> expected then
    err "sibling spread: %d distinct leaves for %d holders, expected %d"
      (distinct_count holder_leaves) (Array.length holders) expected
  else Ok ()

(* Flat placement is exactly the run of live successors starting at the
   closest-at-or-below member — recomputed here from the sorted id list
   rather than through the ring walk. *)
let prop_flat_is_successor_run sc =
  let rng = Rng.create (sc.case_seed + 4) in
  let crashed = gen_crashes rng ~n:sc.n in
  let alive v = not crashed.(v) in
  let k = 1 + Rng.int_below rng 6 in
  let _, domain = gen_domain rng sc in
  let key = Id.random rng in
  let holders =
    Replica_set.compute ~alive sc.rings ~spread:Replica_set.Flat ~k ~domain ~key
  in
  let live_members =
    Array.of_list
      (List.filter alive (Array.to_list (Ring.members (Rings.ring sc.rings domain))))
  in
  (* members are in increasing id order; the primary is the last one
     with id <= key, wrapping to the largest id when none is. *)
  let m = Array.length live_members in
  let expected =
    if m = 0 then [||]
    else begin
      let start = ref (m - 1) in
      Array.iteri
        (fun i v -> if Id.compare sc.pop.Population.ids.(v) key <= 0 then start := i)
        live_members;
      (* [start] is the last index with id <= key thanks to the upward
         scan; when none qualifies it stays at m - 1 (the wrap). *)
      Array.init (min k m) (fun i -> live_members.((!start + i) mod m))
    end
  in
  if holders <> expected then
    err "flat successor run mismatch: [%s] vs expected [%s]"
      (String.concat ";" (List.map string_of_int (Array.to_list holders)))
      (String.concat ";" (List.map string_of_int (Array.to_list expected)))
  else Ok ()

(* Placement is a pure function: recomputing (even after unrelated RNG
   draws) yields the identical array, and the sibling primary is the
   domain's responsible node whenever that node is alive. *)
let prop_placement_deterministic sc =
  let rng = Rng.create (sc.case_seed + 5) in
  let crashed = gen_crashes rng ~n:sc.n in
  let alive v = not crashed.(v) in
  let k = 1 + Rng.int_below rng 6 in
  let _, domain = gen_domain rng sc in
  let key = Id.random rng in
  let compute spread = Replica_set.compute ~alive sc.rings ~spread ~k ~domain ~key in
  let flat1 = compute Replica_set.Flat and sib1 = compute Replica_set.Sibling in
  ignore (Rng.float rng);
  let flat2 = compute Replica_set.Flat and sib2 = compute Replica_set.Sibling in
  let responsible = Rings.responsible sc.rings ~domain ~key in
  if flat1 <> flat2 || sib1 <> sib2 then err "placement not deterministic"
  else if
    alive responsible
    && (flat1.(0) <> responsible || sib1.(0) <> responsible)
  then err "live responsible node %d is not the primary" responsible
  else Ok ()

(* --- the replicated store ------------------------------------------ *)

(* Fault-free round trip in direct mode: every put is fully
   acknowledged, every get returns the latest value, and the copy set
   equals the holder set. *)
let prop_put_get_roundtrip sc =
  let rng = Rng.create (sc.case_seed + 6) in
  let k = 1 + Rng.int_below rng 4 in
  let spread = if Rng.bool rng then Replica_set.Flat else Replica_set.Sibling in
  let store = Replicated_store.create ~k ~spread sc.rings in
  let check_one i =
    let writer, domain = gen_domain rng sc in
    let key = Id.random rng in
    let value = Printf.sprintf "v%d" i in
    let acks = Replicated_store.put store ~writer ~key ~value ~storage_domain:domain in
    let acks2 =
      Replicated_store.put store ~writer ~key ~value:(value ^ "'") ~storage_domain:domain
    in
    let holders = Replicated_store.holders store ~key in
    let querier = Rng.int_below rng sc.n in
    if acks <> Array.length holders || acks2 <> acks then
      err "key %d: %d/%d acks for %d holders" i acks acks2 (Array.length holders)
    else if acks = 0 then err "key %d: unacknowledged in a fault-free universe" i
    else if Replicated_store.get store ~querier ~key <> Some (value ^ "'") then
      err "key %d: stale or missing read" i
    else if Replicated_store.copies store ~key <> Array.of_list (List.sort compare (Array.to_list holders))
    then err "key %d: copies diverge from holders" i
    else Ok ()
  in
  let rec go i = if i >= 8 then Ok () else match check_one i with Ok () -> go (i + 1) | e -> e in
  go 0

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

(* After any single fault-plan event (one node crash or one whole-leaf
   outage), a read of every key succeeds from a live querier and
   read-repair restores the invariant: the live copy holders are exactly
   the current ideal replica set, all at the latest version. *)
let prop_read_repair_restores_invariant sc =
  let rng = Rng.create (sc.case_seed + 7) in
  let plan = Fault_plan.none ~n:sc.n in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings:sc.rings ~rng:(Rng.split rng)
      ~node_latency:oracle
      (Crescendo.build sc.rings)
  in
  let k = 2 + Rng.int_below rng 2 in
  let store = Replicated_store.create ~net ~k ~spread:Replica_set.Sibling sc.rings in
  let keys =
    Array.init 6 (fun i ->
        let writer = Rng.int_below rng sc.n in
        let key = Id.random rng in
        let domain = sc.pop.Population.leaf_of_node.(writer) in
        let acks =
          Replicated_store.put store ~writer ~key
            ~value:(Printf.sprintf "v%d" i)
            ~storage_domain:domain
        in
        if acks = 0 then failwith "fault-free put not acknowledged";
        (key, Printf.sprintf "v%d" i))
  in
  (* the single fault event *)
  if Rng.bool rng then Fault_plan.crash plan (Rng.int_below rng sc.n)
  else begin
    let leaves = Domain_tree.leaves sc.tree in
    let victim = leaves.(Rng.int_below rng (Array.length leaves)) in
    Fault_plan.crash_domain plan sc.pop ~domain:victim
  end;
  let live =
    Array.of_list
      (List.filter
         (fun v -> not (Fault_plan.is_crashed plan v))
         (List.init sc.n Fun.id))
  in
  if Array.length live = 0 then Ok () (* n = 1 and its node crashed *)
  else begin
    let check_key (key, value) =
      let querier = Rng.pick rng live in
      match Replicated_store.get store ~querier ~key with
      | None -> err "key unreadable after a single fault event"
      | Some got when got <> value -> err "read %S, expected %S" got value
      | Some _ ->
          let holders = Replicated_store.holders store ~key in
          let latest = Replicated_store.version store ~key in
          let all_fresh =
            Array.for_all
              (fun h ->
                Replicated_store.stored store ~node:h ~key = Some (value, latest))
              holders
          in
          let live_copies =
            List.filter
              (fun c -> not (Fault_plan.is_crashed plan c))
              (Array.to_list (Replicated_store.copies store ~key))
          in
          if not all_fresh then err "a current holder is stale after read-repair"
          else if live_copies <> List.sort compare (Array.to_list holders) then
            err "live copies [%s] differ from holders [%s]"
              (String.concat ";" (List.map string_of_int live_copies))
              (String.concat ";"
                 (List.map string_of_int (Array.to_list holders)))
          else Ok ()
    in
    Array.fold_left
      (fun acc kv -> match acc with Ok () -> check_key kv | e -> e)
      (Ok ()) keys
  end

(* --- the latency oracle and percentile edges ----------------------- *)

module Transit_stub = Canon_topology.Transit_stub
module Latency = Canon_topology.Latency
module Stats = Canon_stats.Stats

(* The structural oracle equals a full-graph Dijkstra on every router
   pair of random seeded transit-stub topologies, including 1-router
   stub domains, a single transit domain and dense redundant links. *)
let prop_structural_matches_dijkstra () =
  for case = 0 to 39 do
    let seed = 4242 + (case * 17) in
    let rng = Rng.create seed in
    let params =
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 1 + Rng.int_below rng 5;
        transit_nodes_per_domain = 1 + Rng.int_below rng 3;
        stub_domains_per_transit_node = 1 + Rng.int_below rng 3;
        stub_routers_per_domain = 1 + Rng.int_below rng 5;
        extra_edge_fraction = 1.5 *. Rng.float rng;
      }
    in
    let ts = Transit_stub.generate rng params in
    let n = Transit_stub.num_routers ts in
    let lat = Latency.create ts in
    for a = 0 to n - 1 do
      let row = Canon_topology.Graph.dijkstra (Transit_stub.graph ts) a in
      for b = 0 to n - 1 do
        if not (Float.equal (Latency.router_latency lat a b) row.(b)) then
          Alcotest.failf "seed %d: oracle %g <> Dijkstra %g at (%d, %d)" seed
            (Latency.router_latency lat a b) row.(b) a b;
        if
          not
            (Float.equal (Latency.node_latency lat a b)
               (params.Transit_stub.access_ms +. row.(b) +. params.Transit_stub.access_ms))
        then Alcotest.failf "seed %d: node latency off at (%d, %d)" seed a b
      done
    done
  done

(* Percentile edge cases on random samples: p = 0 is the minimum,
   p = 100 the maximum, and any p of a singleton is the element. *)
let prop_percentile_edges () =
  for case = 0 to 49 do
    let rng = Rng.create (7001 + case) in
    let n = 1 + Rng.int_below rng 40 in
    let xs = Array.init n (fun _ -> (Rng.float rng *. 200.0) -. 100.0) in
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if not (Float.equal (Stats.percentile xs 0.0) sorted.(0)) then
      Alcotest.failf "case %d: p0 <> min" case;
    if not (Float.equal (Stats.percentile xs 100.0) sorted.(n - 1)) then
      Alcotest.failf "case %d: p100 <> max" case;
    let singleton = [| xs.(0) |] in
    List.iter
      (fun p ->
        if not (Float.equal (Stats.percentile singleton p) xs.(0)) then
          Alcotest.failf "case %d: n = 1 percentile %.1f <> the element" case p)
      [ 0.0; 37.5; 50.0; 99.0; 100.0 ]
  done

(* --- churn x async ------------------------------------------------- *)

module Churn = Canon_sim.Churn
module Maintenance = Canon_sim.Maintenance
module Event_queue = Canon_sim.Event_queue

(* Integer-valued oracle + integer launch times keep every float sum
   exact, so "same wall clock" below is exact equality, not tolerance. *)
let int_oracle u v =
  if u = v then 0.0 else 5.0 +. Float.of_int (((u * 13) + (v * 7)) mod 40)

(* With a fault-free plan and zero churn events, lookups interleaved on
   one merged queue (live-membership mode) are byte-identical to the
   two-phase path: same status, same hops, same sim time, same message
   count. *)
let prop_merged_zero_churn_fidelity sc =
  if sc.n < 4 then Ok ()
  else begin
    let config =
      {
        Churn.initial_nodes = max 2 (3 * sc.n / 4);
        events = 0;
        join_fraction = 0.5;
        probes_per_event = 0;
        mean_interarrival = 1.0;
      }
    in
    let driver, schedule = Churn.prepare (Rng.create (sc.case_seed + 31)) sc.pop config in
    if schedule <> [] then err "zero-event schedule is not empty"
    else begin
      let m = Churn.maintenance driver in
      let view = Live_view.crescendo m in
      let overlay = Maintenance.overlay m in
      let live_net =
        Net.create ~live:view
          ~rng:(Rng.create (sc.case_seed + 32))
          ~node_latency:int_oracle overlay
      in
      let snap_net =
        Net.create ~rings:(Maintenance.rings m)
          ~rng:(Rng.create (sc.case_seed + 33))
          ~node_latency:int_oracle overlay
      in
      let live = Maintenance.present m in
      let prng = Rng.create (sc.case_seed + 34) in
      let k = 6 in
      let pairs = Array.make k (0, 0) in
      for i = 0 to k - 1 do
        let s = Rng.pick prng live in
        let d = Rng.pick prng live in
        pairs.(i) <- (s, d)
      done;
      let q = Event_queue.create () in
      let push ~time ev = Event_queue.push q ~time ev in
      let pendings =
        Array.mapi
          (fun i (s, d) ->
            Net.launch live_net ~now:(Float.of_int (13 * i)) ~push ~src:s
              ~key:sc.pop.Population.ids.(d))
          pairs
      in
      let rec drain () =
        match Event_queue.pop q with
        | None -> ()
        | Some (t, ev) ->
            Net.handle live_net ~now:t ~push ev;
            drain ()
      in
      drain ();
      let bad = ref None in
      Array.iteri
        (fun i (s, d) ->
          if !bad = None then
            match Net.result pendings.(i) with
            | None -> bad := Some (Printf.sprintf "lookup %d unresolved" i)
            | Some rm ->
                let rs = Net.lookup snap_net ~src:s ~key:sc.pop.Population.ids.(d) in
                if rm.Async_route.status <> rs.Async_route.status then
                  bad := Some (Printf.sprintf "lookup %d: status differs" i)
                else if
                  rm.Async_route.route.Route.nodes <> rs.Async_route.route.Route.nodes
                then bad := Some (Printf.sprintf "lookup %d: path differs" i)
                else if not (Float.equal rm.Async_route.wall_ms rs.Async_route.wall_ms)
                then
                  bad :=
                    Some
                      (Printf.sprintf "lookup %d: wall %.17g <> %.17g" i
                         rm.Async_route.wall_ms rs.Async_route.wall_ms)
                else if rm.Async_route.messages <> rs.Async_route.messages then
                  bad := Some (Printf.sprintf "lookup %d: messages differ" i)
                else if rm.Async_route.retries <> 0 || rm.Async_route.timeouts <> 0 then
                  bad := Some (Printf.sprintf "lookup %d: fault-free lookup paid retries" i))
        pairs;
      match !bad with None -> Ok () | Some msg -> err "%s" msg
    end
  end

(* After any interleaved run, the live membership view equals the set
   implied by replaying the Init/Join/Leave hook stream. Shrinks on the
   event list: halves the event count while the mismatch persists. *)
let prop_view_matches_hook_replay () =
  for case = 0 to 11 do
    let case_seed = 7900 + (911 * case) in
    let n = 24 + Rng.int_below (Rng.create (case_seed lxor 0x2ce)) 96 in
    let sc = scenario ~case_seed ~n in
    let run_events events =
      let hooks = ref [] in
      let config =
        {
          Churn.initial_nodes = max 2 (n / 2);
          events;
          join_fraction = 0.5;
          probes_per_event = 0;
          mean_interarrival = 2.0;
        }
      in
      let driver, schedule =
        Churn.prepare
          ~on_event:(fun h -> hooks := h :: !hooks)
          (Rng.create (case_seed + 5))
          sc.pop config
      in
      let view = Live_view.crescendo (Churn.maintenance driver) in
      let q = Event_queue.create () in
      List.iter (fun (t, ev) -> Event_queue.push q ~time:t ev) schedule;
      let rec drain () =
        match Event_queue.pop q with
        | None -> ()
        | Some (_, ev) ->
            Churn.apply driver ev;
            drain ()
      in
      drain ();
      let implied = Array.make n false in
      List.iter
        (function
          | Churn.Init a -> Array.iter (fun v -> implied.(v) <- true) a
          | Churn.Join v -> implied.(v) <- true
          | Churn.Leave v -> implied.(v) <- false)
        (List.rev !hooks);
      let mismatch = ref None in
      for v = n - 1 downto 0 do
        if Live_view.is_live view v <> implied.(v) then mismatch := Some v
      done;
      !mismatch
    in
    match run_events 50 with
    | None -> ()
    | Some v0 ->
        let rec shrink events v =
          let half = events / 2 in
          if half < 1 then (events, v)
          else
            match run_events half with Some v' -> shrink half v' | None -> (events, v)
        in
        let events, v = shrink 50 v0 in
        Alcotest.failf
          "case seed %d: live view <> hook replay at node %d (smallest failing event \
           count %d)"
          case_seed v events
  done

let suites =
  [
    ( "prop.latency",
      [
        Alcotest.test_case "structural oracle = Dijkstra, all pairs" `Quick
          prop_structural_matches_dijkstra;
        Alcotest.test_case "percentile edges p0/p100/n=1" `Quick prop_percentile_edges;
      ] );
    ( "prop.replication",
      [
        Alcotest.test_case "flat holder count = min k live" `Quick
          (check ~count:50 ~seed:9101 ~min_n:4 ~max_n:160 prop_flat_count);
        Alcotest.test_case "sibling holder count = min k live" `Quick
          (check ~count:50 ~seed:9202 ~min_n:4 ~max_n:160 prop_sibling_count);
        Alcotest.test_case "sibling replicas in distinct leaf domains" `Quick
          (check ~count:50 ~seed:9303 ~min_n:4 ~max_n:160 prop_sibling_distinct_leaves);
        Alcotest.test_case "flat placement = live successor run" `Quick
          (check ~count:50 ~seed:9404 ~min_n:4 ~max_n:160 prop_flat_is_successor_run);
        Alcotest.test_case "placement deterministic, primary = responsible" `Quick
          (check ~count:50 ~seed:9505 ~min_n:4 ~max_n:160 prop_placement_deterministic);
        Alcotest.test_case "put/get round trip, copies = holders" `Quick
          (check ~count:25 ~seed:9606 ~min_n:4 ~max_n:120 prop_put_get_roundtrip);
        Alcotest.test_case "read-repair restores invariant after one fault" `Quick
          (check ~count:12 ~seed:9707 ~min_n:8 ~max_n:96
             prop_read_repair_restores_invariant);
      ] );
    ( "prop.churn-async",
      [
        Alcotest.test_case "zero churn: merged queue = two-phase" `Quick
          (check ~count:20 ~seed:9808 ~min_n:8 ~max_n:120
             prop_merged_zero_churn_fidelity);
        Alcotest.test_case "live view = hook replay" `Quick
          prop_view_matches_hook_replay;
      ] );
  ]
