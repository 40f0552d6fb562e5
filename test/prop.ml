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
        (fun i v -> if sc.pop.Population.ids.(v) <= key then start := i)
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

(* --- finger rule ---------------------------------------------------- *)

(* The historical link constructions, kept as the reference: one
   [Ring.finger] per k = 0..31, deduplicated through [Link_set] in
   insertion order. *)
let reference_chord ring id ~self =
  let acc = Link_set.create ~self in
  for k = 0 to Id.bits - 1 do
    match Ring.finger ring id (1 lsl k) with
    | None -> ()
    | Some target -> Link_set.add acc target
  done;
  Link_set.to_array acc

let reference_crescendo rings node =
  let pop = Rings.population rings in
  let id = pop.Population.ids.(node) in
  let acc = Link_set.create ~self:node in
  let chain = Rings.chain rings node in
  let leaf_ring = Rings.ring rings chain.(0) in
  Array.iter (Link_set.add acc) (reference_chord leaf_ring id ~self:node);
  let d_own = ref (Ring.successor_distance leaf_ring id) in
  for level = 1 to Array.length chain - 1 do
    let ring = Rings.ring rings chain.(level) in
    let k = ref 0 in
    while !k < Id.bits && 1 lsl !k < !d_own do
      (match Ring.finger ring id (1 lsl !k) with
      | None -> ()
      | Some target ->
          let dist = Id.distance id pop.Population.ids.(target) in
          if dist < !d_own then Link_set.add acc target);
      incr k
    done;
    d_own := min !d_own (Ring.successor_distance ring id)
  done;
  let links = Link_set.to_array acc in
  let distance v = Id.distance id pop.Population.ids.(v) in
  Array.sort (fun a b -> compare (distance a) (distance b)) links;
  links

(* Identifiers at the corners of the id space: both ends, the middle,
   and runs of adjacent ids. *)
let corner_ids =
  let half = Id.space / 2 in
  [| 0; 1; 2; half - 1; half; half + 1; Id.space - 2; Id.space - 1 |]

(* The scenario's population with [n] distinct identifiers drawn mostly
   from short runs of adjacent ids around the corners and a few random
   bases, so wrap-around and distance-1 neighbours are the norm. *)
let corner_population rng pop =
  let n = Population.size pop in
  let seen = Hashtbl.create n in
  let ids = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let base =
      if Rng.bool rng then corner_ids.(Rng.int_below rng (Array.length corner_ids))
      else Id.random rng
    in
    let id = Id.add base (Rng.int_below rng 5 - 2) in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      ids.(!filled) <- id;
      incr filled
    end
  done;
  { pop with Population.ids }

let show_links a = String.concat "," (Array.to_list (Array.map string_of_int a))

let compare_links what ~expected ~got =
  if expected = got then Ok ()
  else err "%s: reference [%s], got [%s]" what (show_links expected) (show_links got)

let rec first_error = function
  | [] -> Ok ()
  | f :: rest -> ( match f () with Ok () -> first_error rest | Error _ as e -> e)

(* A random subset of the population, each node with probability 1/2. *)
let random_subset rng n = Array.of_list (List.filter (fun _ -> Rng.bool rng) (List.init n Fun.id))

(* Chord links equal the reference, order included: against the global
   ring (self a member) and against a random sub-ring queried from every
   node (self absent for about half of them), on random and corner ids. *)
let prop_chord_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 41) in
  let on_pop pop () =
    let all = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init sc.n Fun.id) in
    let sub = random_subset rng sc.n in
    let rings =
      if Array.length sub = 0 then [ all ]
      else [ all; Ring.of_members ~ids:pop.Population.ids ~members:sub ]
    in
    first_error
      (List.concat_map
         (fun ring ->
           List.init sc.n (fun v () ->
               let id = pop.Population.ids.(v) in
               compare_links
                 (Printf.sprintf "node %d (id %d), ring of %d" v id (Ring.size ring))
                 ~expected:(reference_chord ring id ~self:v)
                 ~got:(Chord.links_of_id ring id ~self:v)))
         rings)
  in
  first_error [ on_pop sc.pop; on_pop (corner_population rng sc.pop) ]

(* Crescendo links equal the reference, clockwise order included, for
   every node of the full rings and for the present nodes of partial
   rings. *)
let prop_crescendo_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 43) in
  let on_rings rings members () =
    first_error
      (Array.to_list
         (Array.map
            (fun v () ->
              compare_links (Printf.sprintf "node %d" v)
                ~expected:(reference_crescendo rings v)
                ~got:(Crescendo.links_of_node rings v))
            members))
  in
  let on_pop pop () =
    let sub = random_subset rng sc.n in
    first_error
      [
        on_rings (Rings.build pop) (Array.init sc.n Fun.id);
        on_rings (Rings.build_partial pop ~present:sub) sub;
      ]
  in
  first_error [ on_pop sc.pop; on_pop (corner_population rng sc.pop) ]

(* Exhaustive corners: every ring of 1, 2 or 3 corner identifiers,
   queried from every corner identifier with [self] its own holder, an
   absent node, and another corner (excluded even as a member). *)
let prop_finger_corners () =
  let ids = corner_ids in
  let k = Array.length ids in
  let check ring ~id ~self =
    match
      compare_links
        (Printf.sprintf "ring size %d, id %d, self %d" (Ring.size ring) id self)
        ~expected:(reference_chord ring id ~self) ~got:(Chord.links_of_id ring id ~self)
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  in
  let rings = ref [] in
  for a = 0 to k - 1 do
    rings := [| a |] :: !rings;
    for b = a + 1 to k - 1 do
      rings := [| a; b |] :: !rings;
      for c = b + 1 to k - 1 do
        rings := [| a; b; c |] :: !rings
      done
    done
  done;
  List.iter
    (fun members ->
      let ring = Ring.of_members ~ids ~members in
      for v = 0 to k - 1 do
        check ring ~id:ids.(v) ~self:v;
        check ring ~id:ids.(v) ~self:k;
        check ring ~id:ids.(v) ~self:((v + 1) mod k)
      done;
      (* [Ring.finger] is the first member at or after [id + d], or none
         when that is the holder of [id] itself. *)
      Array.iter
        (fun id ->
          for b = 0 to Id.bits - 1 do
            let d = 1 lsl b in
            let first = Ring.first_at_or_after ring (Id.add id d) in
            let expected = if ids.(first) = id then None else Some first in
            Alcotest.(check (option int))
              (Printf.sprintf "finger %d from %d" d id)
              expected (Ring.finger ring id d)
          done)
        ids)
    !rings;
  (* The empty ring has no fingers to give. *)
  let empty = Ring.of_members ~ids ~members:[||] in
  Alcotest.check_raises "empty ring" (Invalid_argument "Chord: empty ring") (fun () ->
      ignore (Chord.links_of_id empty 0 ~self:0))

(* The windowed scan is [Chord.add_fingers ~below:hi] keeping the
   targets at distance >= lo, order included: for every member of the
   population's ring and of a random sub-ring, on random and corner ids,
   with windows 1 <= lo < hi <= Id.space whose ends are drawn on a log
   scale or at a member's distance (give or take one), so that they
   fall between and on targets at every scale. *)
let prop_window_fingers sc =
  let rng = Rng.create (sc.case_seed + 47) in
  let buf = Array.make (Id.bits + 1) 0 in
  let window_end id ring =
    match Rng.int_below rng 3 with
    | 0 -> 1 + Rng.int_below rng (1 lsl Rng.int_below rng (Id.bits + 1))
    | 1 -> Id.space - Rng.int_below rng 3
    | _ ->
        let v = Ring.node_at ring (Rng.int_below rng (Ring.size ring)) in
        let d = Id.distance id sc.pop.Population.ids.(v) in
        max 1 (min Id.space (d + Rng.int_below rng 3 - 1))
  in
  let on_pop pop () =
    let ids = pop.Population.ids in
    let sub = random_subset rng sc.n in
    let rings =
      Ring.of_members ~ids ~members:(Array.init sc.n Fun.id)
      :: (if Array.length sub = 0 then [] else [ Ring.of_members ~ids ~members:sub ])
    in
    first_error
      (List.concat_map
         (fun ring ->
           List.concat_map
             (fun v ->
               let id = ids.(v) in
               List.init 4 (fun _ () ->
                   let a = window_end id ring and b = window_end id ring in
                   let lo = min a b and hi = if a = b then a + 1 else max a b in
                   let lo, hi = if hi > Id.space then (lo - 1, Id.space) else (lo, hi) in
                   let all = Array.sub buf 0 (Chord.add_fingers ring id ~self:v ~below:hi buf 0) in
                   let expected =
                     Array.of_list
                       (List.filter (fun u -> Id.distance id ids.(u) >= lo) (Array.to_list all))
                   in
                   let got =
                     Array.sub buf 0
                       (Chord.add_fingers_between ring id ~self:v ~from:lo ~below:hi buf 0)
                   in
                   compare_links
                     (Printf.sprintf "node %d (id %d), ring of %d, window [%d, %d)" v id
                        (Ring.size ring) lo hi)
                     ~expected ~got))
             (Array.to_list (Ring.members ring)))
         rings)
  in
  first_error [ on_pop sc.pop; on_pop (corner_population rng sc.pop) ]

(* --- churn departure draw ------------------------------------------ *)

(* The historical churn driver, kept as the reference for the
   order-statistic draws: a departure is [Rng.pick] over the eligible
   members of [Maintenance.present] (decreasing node order), a probe
   endpoint is [Rng.pick] over [Maintenance.present]. *)
type reference_driver = {
  r_m : Maintenance.t;
  r_rng : Rng.t;
  r_config : Churn.config;
  r_can_churn : int -> bool;
  mutable r_waiting : int list;
  mutable r_hooks : Churn.hook list; (* newest first *)
  mutable r_joins : int;
  mutable r_leaves : int;
  mutable r_join_msgs : int;
  mutable r_leave_msgs : int;
}

let reference_prepare ~can_churn rng pop (config : Churn.config) =
  let n = Population.size pop in
  let order = Array.init n Fun.id in
  Rng.shuffle_in_place rng order;
  let initial = Array.sub order 0 config.initial_nodes in
  let m = Maintenance.create pop ~present:initial in
  let waiting =
    List.filter can_churn
      (Array.to_list (Array.sub order config.initial_nodes (n - config.initial_nodes)))
  in
  let schedule = ref [] in
  for _ = 1 to config.events do
    let dt = Rng.exponential rng ~mean:config.mean_interarrival in
    let kind = if Rng.float rng < config.join_fraction then Churn.Arrival else Churn.Departure in
    schedule := (dt, kind) :: !schedule
  done;
  ( {
      r_m = m;
      r_rng = rng;
      r_config = config;
      r_can_churn = can_churn;
      r_waiting = waiting;
      r_hooks = [ Churn.Init (Array.copy initial) ];
      r_joins = 0;
      r_leaves = 0;
      r_join_msgs = 0;
      r_leave_msgs = 0;
    },
    List.rev !schedule )

let reference_apply d = function
  | Churn.Arrival -> (
      match d.r_waiting with
      | [] -> ()
      | node :: rest ->
          d.r_waiting <- rest;
          let stats = Maintenance.join d.r_m node in
          d.r_join_msgs <- d.r_join_msgs + Maintenance.total stats;
          d.r_joins <- d.r_joins + 1;
          d.r_hooks <- Churn.Join node :: d.r_hooks)
  | Churn.Departure ->
      let live = Maintenance.present d.r_m in
      if Array.length live > max 8 (d.r_config.initial_nodes / 4) then begin
        let pool = Array.of_list (List.filter d.r_can_churn (Array.to_list live)) in
        if Array.length pool > 0 then begin
          let node = Rng.pick d.r_rng pool in
          let stats = Maintenance.leave d.r_m node in
          d.r_leave_msgs <- d.r_leave_msgs + Maintenance.total stats;
          d.r_leaves <- d.r_leaves + 1;
          d.r_hooks <- Churn.Leave node :: d.r_hooks
        end
      end

let reference_mean msgs count = if count = 0 then 0.0 else Float.of_int msgs /. Float.of_int count

let show_hook = function
  | Churn.Init a -> Printf.sprintf "init(%d)" (Array.length a)
  | Churn.Join v -> Printf.sprintf "join %d" v
  | Churn.Leave v -> Printf.sprintf "leave %d" v

(* First position where two hook sequences differ, if any. *)
let hooks_differ expected got =
  let rec go i = function
    | [], [] -> None
    | e :: es, g :: gs -> if e = g then go (i + 1) (es, gs) else Some (i, show_hook e, show_hook g)
    | e :: _, [] -> Some (i, show_hook e, "end")
    | [], g :: _ -> Some (i, "end", show_hook g)
  in
  go 0 (expected, got)

let check_hooks ~expected ~got =
  match hooks_differ expected got with
  | None -> Ok ()
  | Some (i, e, g) -> err "hook %d: reference %s, got %s" i e g

(* [prepare]/[apply] draw the same departing nodes as the O(n) pool pick:
   identical hook sequence and message means, over random [can_churn]
   masks, join fractions and initial sizes — small ones included, where
   the quorum floor [max 8 (initial_nodes / 4)] blocks departures. *)
let prop_departure_draw_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 47) in
  let protect = Rng.float rng in
  let mask = Array.init sc.n (fun _ -> Rng.float rng >= protect) in
  let can_churn v = mask.(v) in
  let config =
    {
      Churn.initial_nodes =
        (if Rng.bool rng then min sc.n (1 + Rng.int_below rng 12)
         else Rng.int_below rng (sc.n + 1));
      events = 1 + Rng.int_below rng 80;
      join_fraction = Rng.float rng;
      probes_per_event = 0;
      mean_interarrival = 1.0;
    }
  in
  let seed = sc.case_seed + 53 in
  let r, r_schedule = reference_prepare ~can_churn (Rng.create seed) sc.pop config in
  List.iter (fun (_, ev) -> reference_apply r ev) r_schedule;
  let hooks = ref [] in
  let driver, schedule =
    Churn.prepare ~on_event:(fun h -> hooks := h :: !hooks) ~can_churn (Rng.create seed) sc.pop
      config
  in
  List.iter (fun (_, ev) -> Churn.apply driver ev) schedule;
  if schedule <> r_schedule then err "schedules differ"
  else
    first_error
      [
        (fun () -> check_hooks ~expected:(List.rev r.r_hooks) ~got:(List.rev !hooks));
        (fun () ->
          let expect = reference_mean r.r_join_msgs r.r_joins in
          if Churn.join_message_mean driver = expect then Ok ()
          else err "join mean %g, reference %g" (Churn.join_message_mean driver) expect);
        (fun () ->
          let expect = reference_mean r.r_leave_msgs r.r_leaves in
          if Churn.leave_message_mean driver = expect then Ok ()
          else err "leave mean %g, reference %g" (Churn.leave_message_mean driver) expect);
        (fun () ->
          let m = Churn.maintenance driver in
          if Maintenance.count m = Array.length (Maintenance.present m) then Ok ()
          else err "count %d, present %d" (Maintenance.count m)
                 (Array.length (Maintenance.present m)));
      ]

(* The historical [Churn.run]: the reference driver on a private event
   queue, each probe picking both endpoints from [Maintenance.present]. *)
let reference_run rng pop (config : Churn.config) =
  let n = Population.size pop in
  let d, schedule = reference_prepare ~can_churn:(fun _ -> true) rng pop config in
  let m = d.r_m in
  let queue = Event_queue.create () in
  List.iter (fun (dt, kind) -> Event_queue.push queue ~time:dt kind) schedule;
  let clock = ref 0.0 and probes = ref 0 and failed = ref 0 in
  let probe () =
    let live = Maintenance.present m in
    if Array.length live >= 2 then begin
      incr probes;
      let src = Rng.pick rng live and dst = Rng.pick rng live in
      let route =
        Router.greedy_clockwise_generic
          ~level:(fun u v ->
            Domain_tree.depth pop.Population.tree (Population.lca_of_nodes pop u v))
          ~n ~ids:pop.Population.ids
          ~links:(fun v -> if Maintenance.is_present m v then Maintenance.links m v else [||])
          ~src ~key:pop.Population.ids.(dst)
      in
      if Route.destination route <> dst then incr failed
    end
  in
  let rec drain () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (time, kind) ->
        clock := time;
        reference_apply d kind;
        for _ = 1 to config.probes_per_event do
          probe ()
        done;
        drain ()
  in
  drain ();
  ( {
      Churn.joins = d.r_joins;
      leaves = d.r_leaves;
      probes = !probes;
      failed_probes = !failed;
      join_message_mean = reference_mean d.r_join_msgs d.r_joins;
      leave_message_mean = reference_mean d.r_leave_msgs d.r_leaves;
      final_population = Array.length (Maintenance.present m);
      sim_time = !clock;
    },
    List.rev d.r_hooks )

(* [Churn.run] with order-statistic probe endpoints reproduces the
   reference run: the same report, field for field, and the same hooks. *)
let prop_churn_run_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 59) in
  let config =
    {
      Churn.initial_nodes = 1 + Rng.int_below rng sc.n;
      events = 1 + Rng.int_below rng 60;
      join_fraction = Rng.float rng;
      probes_per_event = Rng.int_below rng 4;
      mean_interarrival = 0.5;
    }
  in
  let seed = sc.case_seed + 61 in
  let expected, expected_hooks = reference_run (Rng.create seed) sc.pop config in
  let hooks = ref [] in
  let report = Churn.run ~on_event:(fun h -> hooks := h :: !hooks) (Rng.create seed) sc.pop config in
  if report <> expected then
    err "report: %d joins %d leaves %d probes %d failed %d final, reference %d %d %d %d %d"
      report.joins report.leaves report.probes report.failed_probes report.final_population
      expected.joins expected.leaves expected.probes expected.failed_probes
      expected.final_population
  else check_hooks ~expected:expected_hooks ~got:(List.rev !hooks)

(* --- placement reference ------------------------------------------- *)

(* The historical placement, kept as the reference: hashtable sets for
   taken nodes and used leaves, and for Sibling the full list of every
   other leaf domain built from [Domain_tree.subtree_leaves] before the
   first replica is chosen. *)
let reference_responsible_rank ring ~key =
  let size = Ring.size ring in
  let r = Ring.rank_at_or_after ring key in
  if r < size && Id.equal (Ring.id_at ring r) key then r
  else (r - 1 + size) mod size

let reference_walk_ring ring ~key ~alive ~taken f =
  let size = Ring.size ring in
  if size > 0 then begin
    let r0 = ref (reference_responsible_rank ring ~key) in
    let back = ref 0 in
    while !back < size && not (alive (Ring.node_at ring !r0)) do
      r0 := (!r0 - 1 + size) mod size;
      incr back
    done;
    let continue = ref true in
    let i = ref 0 in
    while !continue && !i < size do
      let v = Ring.node_at ring ((!r0 + !i) mod size) in
      if alive v && not (Hashtbl.mem taken v) then continue := f v;
      incr i
    done
  end

let reference_leaf_sequence tree ~from_leaf =
  let out = ref [] in
  let root = Domain_tree.root tree in
  let d = ref from_leaf in
  while !d <> root do
    let p = Domain_tree.parent tree !d in
    Array.iter
      (fun c ->
        if c <> !d then
          Array.iter (fun l -> out := l :: !out) (Domain_tree.subtree_leaves tree c))
      (Domain_tree.children tree p);
    d := p
  done;
  List.rev !out

let reference_compute ~alive rings ~spread ~k ~domain ~key =
  let pop = Rings.population rings in
  let tree = pop.Population.tree in
  let taken = Hashtbl.create 8 in
  let holders = ref [] in
  let count = ref 0 in
  let take v =
    Hashtbl.replace taken v ();
    holders := v :: !holders;
    incr count
  in
  let first_live ring =
    let found = ref None in
    reference_walk_ring ring ~key ~alive ~taken (fun v ->
        found := Some v;
        false);
    !found
  in
  (match spread with
  | Replica_set.Flat ->
      reference_walk_ring (Rings.ring rings domain) ~key ~alive ~taken (fun v ->
          take v;
          !count < k)
  | Replica_set.Sibling ->
      let primary = first_live (Rings.ring rings domain) in
      let used_leaves = Hashtbl.create 8 in
      let start_leaf =
        match primary with
        | Some p ->
            take p;
            let l = pop.Population.leaf_of_node.(p) in
            Hashtbl.replace used_leaves l ();
            l
        | None -> (Domain_tree.subtree_leaves tree domain).(0)
      in
      List.iter
        (fun l ->
          if !count < k && not (Hashtbl.mem used_leaves l) then
            match first_live (Rings.ring rings l) with
            | Some v ->
                take v;
                Hashtbl.replace used_leaves l ()
            | None -> ())
        (reference_leaf_sequence tree ~from_leaf:start_leaf);
      if !count < k then
        reference_walk_ring (Rings.ring rings (Domain_tree.root tree)) ~key ~alive ~taken
          (fun v ->
            take v;
            !count < k));
  Array.of_list (List.rev !holders)

(* [cases] random placements over [rings], each compared with the
   reference for both spreads and every k from 1 to (live leaf domains
   + 2), so the global-ring fallback runs too. A case draws a storage
   domain (any domain: root, inner, leaf, possibly empty), a key (random
   or a member's id) and an alive mask: everyone, a random crash set, or
   a random crash set plus the whole storage domain dead. *)
let placement_matches_reference rng rings ~cases =
  let pop = Rings.population rings in
  let tree = pop.Population.tree in
  let n = Population.size pop in
  let case c () =
    let domain = Rng.int_below rng (Domain_tree.num_domains tree) in
    let key =
      if n > 0 && Rng.bool rng then pop.Population.ids.(Rng.int_below rng n) else Id.random rng
    in
    let dead = Array.make n false in
    let mode = Rng.int_below rng 3 in
    if mode > 0 then begin
      let frac = Rng.float rng *. 0.6 in
      for v = 0 to n - 1 do
        if Rng.float rng < frac then dead.(v) <- true
      done
    end;
    if mode = 2 then Array.iter (fun v -> dead.(v) <- true) (Ring.members (Rings.ring rings domain));
    let alive v = not dead.(v) in
    let live_leaves =
      Array.fold_left
        (fun acc l -> if Array.exists alive (Ring.members (Rings.ring rings l)) then acc + 1 else acc)
        0 (Domain_tree.leaves tree)
    in
    first_error
      (List.concat_map
         (fun spread ->
           List.init (live_leaves + 2) (fun i () ->
               let k = i + 1 in
               compare_links
                 (Printf.sprintf "case %d, %s, k %d, domain %d, alive mode %d, key %d" c
                    (Replica_set.spread_to_string spread) k domain mode key)
                 ~expected:(reference_compute ~alive rings ~spread ~k ~domain ~key)
                 ~got:(Replica_set.compute ~alive rings ~spread ~k ~domain ~key)))
         [ Replica_set.Sibling; Replica_set.Flat ])
  in
  first_error (List.init cases case)

let prop_placement_reference_ragged sc =
  placement_matches_reference (Rng.create (sc.case_seed + 51)) sc.rings ~cases:6

(* Complete trees of every small shape, from the flat single leaf up to
   4 levels of fanout 4, under both placement policies. *)
let prop_placement_reference_uniform () =
  for fanout = 1 to 4 do
    for levels = 1 to 4 do
      let seed = (100 * fanout) + levels in
      let rng = Rng.create seed in
      let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout ~levels) in
      let policy =
        if Rng.bool rng then Placement.Uniform else Placement.Zipfian 1.25
      in
      let n = 1 + Rng.int_below rng 160 in
      let rings = Rings.build (Population.create rng ~tree ~policy ~n) in
      match placement_matches_reference rng rings ~cases:4 with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fanout %d, levels %d, n %d: %s" fanout levels n msg
    done
  done

(* The five-level hierarchy of the 2040-router transit-stub topology,
   with far more leaf domains than nodes: most leaves are empty. *)
let prop_placement_reference_transit_stub () =
  List.iter
    (fun seed ->
      let setup = Canon_experiments.Common.topology_setup ~seed in
      let pop = Canon_experiments.Common.topology_population ~seed:(seed + 1) setup ~n:300 in
      match placement_matches_reference (Rng.create (seed + 2)) (Rings.build pop) ~cases:3 with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "transit-stub seed %d: %s" seed msg)
    [ 3; 17 ]

(* --- the clockwise step ---------------------------------------------- *)

(* The historical two-pass step, kept as the reference: one pass for the
   best live link, a second for "some dead link would have made
   progress". The fault-free choice was this step with nothing dead. *)
let reference_step ~id ~links ~dead ~at:u ~key =
  let du = Id.distance (id u) key in
  if du = 0 then Router.Arrived
  else begin
    let lnks = links u in
    let best = ref (-1) and best_remaining = ref du in
    Array.iter
      (fun v ->
        if not (dead v) then begin
          let remaining = Id.distance (id v) key in
          if Id.distance (id u) (id v) <= du && remaining < !best_remaining then begin
            best := v;
            best_remaining := remaining
          end
        end)
      lnks;
    if !best >= 0 then Router.Forward !best
    else if Array.exists (fun v -> dead v && Id.distance (id u) (id v) <= du) lnks then
      Router.Blocked
    else Router.Arrived
  end

let show_outcome = function
  | Router.Forward v -> Printf.sprintf "Forward %d" v
  | Router.Arrived -> "Arrived"
  | Router.Blocked -> "Blocked"

let show_node = function None -> "none" | Some v -> string_of_int v

(* The sorted step against the reference at node [at] for [key]: the
   same outcome under [dead], and a fault-free link equal to the
   reference's forward target with nothing dead. *)
let step_matches_reference ~ids ~links ~dead ~at ~key =
  let step = Router.step_clockwise ~ids ~row:(links at) ~dead ~at ~key in
  let id = Array.get ids in
  let expected = reference_step ~id ~links ~dead ~at ~key in
  let expected_free =
    match reference_step ~id ~links ~dead:(fun _ -> false) ~at ~key with
    | Router.Forward w -> Some w
    | Router.Arrived | Router.Blocked -> None
  in
  if step.Router.outcome <> expected then
    err "at %d, key %d: outcome %s, reference %s" at key (show_outcome step.Router.outcome)
      (show_outcome expected)
  else if step.Router.fault_free <> expected_free then
    err "at %d, key %d: fault-free %s, reference %s" at key (show_node step.Router.fault_free)
      (show_node expected_free)
  else Ok ()

(* Random keys, member ids and their neighbours, so that arrival at
   distance 0 and distance-1 links both occur. *)
let step_keys rng ~id ~n =
  List.init 6 (fun i ->
      match i mod 3 with
      | 0 -> Id.random rng
      | 1 -> id (Rng.int_below rng n)
      | _ -> Id.add (id (Rng.int_below rng n)) (Rng.int_below rng 3 - 1))

(* [n] distinct identifiers; each of the extreme ids 0, 1, 2^31 and
   2^32 - 1 is among them with probability 1/2. *)
let table_ids rng n =
  let seen = Hashtbl.create n and ids = Array.make n 0 and filled = ref 0 in
  let add id =
    if !filled < n && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      ids.(!filled) <- id;
      incr filled
    end
  in
  Array.iter (fun id -> if Rng.bool rng then add id) [| 0; 1; Id.space / 2; Id.space - 1 |];
  while !filled < n do
    add (Id.random rng)
  done;
  Rng.shuffle_in_place rng ids;
  ids

let flat_population ids =
  let tree = Domain_tree.of_spec Domain_tree.Leaf in
  let n = Array.length ids in
  { Population.ids; tree; leaf_of_node = Array.make n (Domain_tree.root tree); attach = None }

(* --- overlay adjacency ------------------------------------------------ *)

(* [Overlay.create] on random adjacencies, over distinct ids (some rows
   given already sorted, as Chord's are) or ids drawn from a small pool
   (so they may collide): it raises iff some holder and link, or two
   links of one holder, share an id; otherwise every row comes out a
   permutation of the input row, strictly ascending by clockwise
   distance from its holder. *)
let prop_create_sorts_clockwise () =
  for case = 0 to 299 do
    let rng = Rng.create (8800 + case) in
    (* Small overlays half the time, where one collision decides the
       outcome. *)
    let n = 1 + Rng.int_below rng (if case land 1 = 0 then 6 else 40) in
    let ids =
      if Rng.bool rng then table_ids rng n
      else begin
        let pool = Array.init (1 + Rng.int_below rng 6) (fun _ ->
            if Rng.bool rng then corner_ids.(Rng.int_below rng (Array.length corner_ids))
            else Id.random rng)
        in
        Array.init n (fun _ -> pool.(Rng.int_below rng (Array.length pool)))
      end
    in
    let distance u v = Id.distance ids.(u) ids.(v) in
    let presorted = Rng.bool rng in
    let input =
      Array.init n (fun u ->
          let others = Array.of_list (List.filter (( <> ) u) (List.init n Fun.id)) in
          Rng.shuffle_in_place rng others;
          let row = Array.sub others 0 (Rng.int_below rng (Array.length others + 1)) in
          if presorted then Array.stable_sort (fun a b -> compare (distance u a) (distance u b)) row;
          row)
    in
    let collides u row =
      Array.exists
        (fun v -> ids.(v) = ids.(u) || Array.exists (fun w -> w <> v && ids.(w) = ids.(v)) row)
        row
    in
    let check ~what input =
      let collide = Array.exists Fun.id (Array.mapi collides input) in
      match Overlay.create (flat_population ids) ~links:(Array.map Array.copy input) with
      | exception Invalid_argument msg ->
          if msg <> "Overlay.create: linked nodes share an id" then
            Alcotest.failf "case %d, %s: raised %S" case what msg;
          if not collide then Alcotest.failf "case %d, %s: raised, but no ids collide" case what
      | overlay ->
          if collide then Alcotest.failf "case %d, %s: accepted links whose ids collide" case what;
          Array.iteri
            (fun u row ->
              let out = Overlay.links overlay u in
              if List.sort compare (Array.to_list out) <> List.sort compare (Array.to_list row)
              then
                Alcotest.failf "case %d, %s, node %d: links are not a permutation of the input"
                  case what u;
              for i = 1 to Array.length out - 1 do
                if distance u out.(i) <= distance u out.(i - 1) then
                  Alcotest.failf "case %d, %s, node %d: link %d not strictly clockwise" case what
                    u i
              done)
            input
    in
    (* The whole adjacency, then each row alone, so that a collision in
       one row cannot hide how another row is checked. *)
    check ~what:"all rows" input;
    Array.iteri
      (fun u row ->
        check ~what:(Printf.sprintf "row %d alone" u)
          (Array.init n (fun v -> if v = u then row else [||])))
      input
  done

(* --- one path driver ------------------------------------------------ *)

module Trace = Canon_telemetry.Trace
module Span = Canon_telemetry.Span
module Sink = Canon_telemetry.Sink

(* How a walk ended: a route, a stranded path (the avoiding engine's
   [None]), or the fields of the hop-budget exception. *)
type walked =
  | Routed of int array
  | Stranded of int array
  | Stuck_at of { at : int; key : Id.t; hops : int; path : int array }

let show_walked = function
  | Routed p -> Printf.sprintf "route [%s]" (show_links p)
  | Stranded p -> Printf.sprintf "stranded [%s]" (show_links p)
  | Stuck_at { at; key; hops; path } ->
      Printf.sprintf "stuck at %d, key %d, %d hops [%s]" at key hops (show_links path)

let path_of u acc = Array.of_list (List.rev (u :: acc))

(* The historical hop loop of the infallible engines, kept as the
   reference: [step] answers the next node or [None] to stop. *)
let reference_collect ~n ~src ~key step =
  let max_hops = n + 1 in
  let rec go u acc hops =
    match step u with
    | None -> Routed (path_of u acc)
    | Some v ->
        if hops >= max_hops then Stuck_at { at = u; key; hops; path = path_of u acc }
        else go v (u :: acc) (hops + 1)
  in
  go src [] 0

(* The historical two-distance clockwise step: the two-pass
   [reference_step] with nothing dead. *)
let reference_clockwise ~id ~links ~key u =
  match reference_step ~id ~links ~dead:(fun _ -> false) ~at:u ~key with
  | Router.Forward v -> Some v
  | Router.Arrived | Router.Blocked -> None

(* The historical lookahead step. *)
let reference_lookahead overlay ~key u =
  let du = Id.distance (Overlay.id overlay u) key in
  if du = 0 then None
  else begin
    let remaining w = Id.distance (Overlay.id overlay w) key in
    let no_overshoot a b =
      Id.distance (Overlay.id overlay a) (Overlay.id overlay b) <= remaining a
    in
    let score v =
      let best = ref (remaining v) in
      Array.iter
        (fun w -> if no_overshoot v w && remaining w < !best then best := remaining w)
        (Overlay.links overlay v);
      !best
    in
    let best = ref (-1) and best_score = ref du and best_progress = ref (-1) in
    Array.iter
      (fun v ->
        if no_overshoot u v then begin
          let s = score v and progress = du - remaining v in
          if s < !best_score || (s = !best_score && progress > !best_progress) then begin
            best := v;
            best_score := s;
            best_progress := progress
          end
        end)
      (Overlay.links overlay u);
    if !best < 0 then None else Some !best
  end

(* The historical XOR step. *)
let reference_xor overlay ~key u =
  let du = Id.xor_distance (Overlay.id overlay u) key in
  if du = 0 then None
  else begin
    let best = ref (-1) and best_d = ref du in
    Array.iter
      (fun v ->
        let d = Id.xor_distance (Overlay.id overlay v) key in
        if d < !best_d then begin
          best := v;
          best_d := d
        end)
      (Overlay.links overlay u);
    if !best < 0 then None else Some !best
  end

(* The historical loop of [greedy_clockwise_avoiding] over the two-pass
   step. *)
let reference_avoiding overlay ~dead ~src ~key =
  let id = Overlay.id overlay and links = Overlay.links overlay in
  let max_hops = Overlay.size overlay + 1 in
  let rec go u acc hops =
    match reference_step ~id ~links ~dead ~at:u ~key with
    | Router.Forward v ->
        if hops >= max_hops then Stuck_at { at = u; key; hops; path = path_of u acc }
        else go v (u :: acc) (hops + 1)
    | Router.Blocked -> Stranded (path_of u acc)
    | Router.Arrived -> Routed (path_of u acc)
  in
  go src [] 0

(* The historical Chord-groups loop of [Proximity.route]. *)
let reference_chord_groups ov ~t_bits ~src ~dst =
  let group node = Id.prefix (Overlay.id ov node) t_bits in
  let ngroups = 1 lsl t_bits in
  let gdist a b = (b - a) land (ngroups - 1) in
  let dst_group = group dst in
  let key = Overlay.id ov dst in
  let max_hops = Overlay.size ov + 1 in
  let rec go u acc hops =
    if u = dst then Routed (path_of u acc)
    else if hops >= max_hops then Stuck_at { at = u; key; hops; path = path_of u acc }
    else if group u = dst_group then go dst (u :: acc) (hops + 1)
    else begin
      let du = gdist (group u) dst_group in
      let best = ref (-1) and best_remaining = ref du in
      Array.iter
        (fun v ->
          let dv = gdist (group v) dst_group in
          if gdist (group u) (group v) <= du && dv < !best_remaining then begin
            best := v;
            best_remaining := dv
          end)
        (Overlay.links ov u);
      if !best < 0 then Stuck_at { at = u; key; hops; path = path_of u acc }
      else go !best (u :: acc) (hops + 1)
    end
  in
  go src [] 0

(* SkipNet's per-level (left, right) name neighbours, rebuilt from the
   name order: the historical construction. *)
let reference_skipnet_pointers pop sk =
  let n = Population.size pop and ids = pop.Population.ids in
  let levels = Array.make n [] in
  let rec refine members bit =
    let k = Array.length members in
    if k >= 2 then begin
      Array.iteri
        (fun i node ->
          levels.(node) <- (members.((i + k - 1) mod k), members.((i + 1) mod k)) :: levels.(node))
        members;
      if bit < Id.bits then begin
        let side b =
          Array.of_list
            (List.filter
               (fun m -> (ids.(m) lsr (Id.bits - 1 - bit)) land 1 = b)
               (Array.to_list members))
        in
        refine (side 0) (bit + 1);
        refine (side 1) (bit + 1)
      end
    end
  in
  refine (Array.init n (Skipnet.node_of_rank sk)) 0;
  Array.map (fun l -> Array.of_list (List.rev l)) levels

(* The historical loop of [Skipnet.route_by_name]; a stuck route is
   labelled with [dst]'s identifier (the parent labelled it with [dst]'s
   name rank). *)
let reference_route_by_name sk ~ids ~pointers ~src ~dst =
  let rank = Skipnet.name_rank sk in
  let target = rank dst and key = ids.(dst) in
  let max_hops = Array.length pointers + 1 in
  let rec go u acc hops =
    if u = dst then Routed (path_of u acc)
    else if hops >= max_hops then Stuck_at { at = u; key; hops; path = path_of u acc }
    else begin
      let ru = rank u in
      let best = ref u and best_dist = ref (abs (target - ru)) in
      Array.iter
        (fun (l, r) ->
          let candidate = if target > ru then r else l in
          let rc = rank candidate in
          let between =
            if target > ru then rc > ru && rc <= target else rc < ru && rc >= target
          in
          if between && abs (target - rc) < !best_dist then begin
            best := candidate;
            best_dist := abs (target - rc)
          end)
        pointers.(u);
      if !best = u then Stuck_at { at = u; key; hops; path = path_of u acc }
      else go !best (u :: acc) (hops + 1)
    end
  in
  go src [] 0

(* The historical loop of [Skipnet.route_by_numeric], kept as the
   reference: at [level] matched bits, walk right along the level ring
   to a node matching one more bit, every step a hop; a walk of [n]
   steps (or from a node alone on its ring) that finds none is dropped,
   and the route ends where that walk began. *)
let reference_route_by_numeric ~ids ~pointers ~src ~key =
  let n = Array.length pointers in
  let matches node bits = bits = 0 || Id.prefix ids.(node) bits = Id.prefix key bits in
  let ring_step level v =
    if Array.length pointers.(v) > level then Some (snd pointers.(v).(level)) else None
  in
  let rec climb u level path =
    if level >= Id.bits then List.rev path
    else begin
      let rec walk v path steps =
        if matches v (level + 1) then Some (v, path)
        else if steps >= n then None
        else
          match ring_step level v with
          | None -> None
          | Some next -> walk next (next :: path) (steps + 1)
      in
      match walk u path 0 with
      | Some (v, path') -> climb v (level + 1) path'
      | None -> List.rev path
    end
  in
  Routed (Array.of_list (climb src 0 [ src ]))

(* An untraced engine run as a [walked]. *)
let walked_of run =
  match run () with
  | route -> Routed route.Route.nodes
  | exception Router.Stuck { at; key; hops; path } -> Stuck_at { at; key; hops; path }

(* An engine run under a fresh ambient trace writing to a memory sink:
   how it ended, checked against the one span it must record — kind,
   outcome, path, and the link level of every hop (the reference's
   depth of the endpoints' LCA domain). A stranded walk's path is the
   span's. *)
let traced_walked pop ~kind run =
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  let ended =
    Trace.set_ambient (Some trace);
    Fun.protect
      ~finally:(fun () -> Trace.set_ambient None)
      (fun () ->
        match run () with
        | Some route -> Routed route.Route.nodes
        | None -> Stranded [||]
        | exception Router.Stuck { at; key; hops; path } -> Stuck_at { at; key; hops; path })
  in
  match Sink.spans sink with
  | [ span ] -> (
      let path = Span.path span in
      let level u v = Domain_tree.depth pop.Population.tree (Population.lca_of_nodes pop u v) in
      let levels_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i (e : Span.event) -> i = 0 || e.level = level path.(i - 1) path.(i))
             span.Span.events)
      in
      let walked, outcome, walked_path =
        match ended with
        | Routed p -> (ended, Span.Arrived, p)
        | Stranded _ -> (Stranded path, Span.Stranded, path)
        | Stuck_at { path = p; _ } -> (ended, Span.Stuck, p)
      in
      if span.Span.kind <> kind then err "span kind %s, expected %s" span.Span.kind kind
      else if span.Span.outcome <> outcome || walked_path <> path then
        err "%s span [%s] for %s" (Span.outcome_to_string span.Span.outcome) (show_links path)
          (show_walked walked)
      else if not levels_ok then err "%s: span link levels differ from the LCA depths" kind
      else Ok walked)
  | spans -> err "%s: %d spans recorded, expected 1" kind (List.length spans)

let same what ~expected got =
  match got with
  | Error _ as e -> e
  | Ok got when got = expected -> Ok ()
  | Ok got -> err "%s: reference %s, got %s" what (show_walked expected) (show_walked got)

(* The clockwise and avoiding engines (and, when asked, the lookahead
   and XOR engines) from [src] toward [key], traced, against their
   references; [dead] only applies to the avoiding engine, from a live
   source. *)
let overlay_engines_match ~lookahead ~xor overlay ~dead ~src ~key =
  let pop = Overlay.population overlay in
  let n = Overlay.size overlay in
  let id = Overlay.id overlay and links = Overlay.links overlay in
  let some f () = Some (f ()) in
  let clockwise () =
    same "greedy_clockwise"
      ~expected:(reference_collect ~n ~src ~key (reference_clockwise ~id ~links ~key))
      (traced_walked pop ~kind:"greedy_clockwise"
         (some (fun () -> Router.greedy_clockwise overlay ~src ~key)))
  in
  let avoiding () =
    if dead src then Ok ()
    else
      same "greedy_clockwise_avoiding"
        ~expected:(reference_avoiding overlay ~dead ~src ~key)
        (traced_walked pop ~kind:"greedy_clockwise_avoiding" (fun () ->
             Router.greedy_clockwise_avoiding overlay ~dead ~src ~key))
  in
  let lookahead () =
    if not lookahead then Ok ()
    else
      same "greedy_clockwise_lookahead"
        ~expected:(reference_collect ~n ~src ~key (reference_lookahead overlay ~key))
        (traced_walked pop ~kind:"greedy_clockwise_lookahead"
           (some (fun () -> Router.greedy_clockwise_lookahead overlay ~src ~key)))
  in
  let xor () =
    if not xor then Ok ()
    else
      same "greedy_xor"
        ~expected:(reference_collect ~n ~src ~key (reference_xor overlay ~key))
        (traced_walked pop ~kind:"greedy_xor"
           (some (fun () -> Router.greedy_xor overlay ~src ~key)))
  in
  first_error [ clockwise; avoiding; lookahead; xor ]

(* The generic clockwise engine at the smallest hop budget its route
   fits in and the two below it, where it must raise [Stuck] with the
   reference's fields. *)
let generic_matches ~n ~ids ~links ~src ~key =
  let id = Array.get ids in
  let route_hops =
    match reference_collect ~n ~src ~key (reference_clockwise ~id ~links ~key) with
    | Routed p -> Array.length p - 1
    | Stranded _ | Stuck_at _ -> n
  in
  first_error
    (List.init
       (min (n + 1) 3)
       (fun i () ->
         let budget_n = max 0 (min n (route_hops - 1 - i)) in
         same
           (Printf.sprintf "greedy_clockwise_generic, n = %d" budget_n)
           ~expected:
             (reference_collect ~n:budget_n ~src ~key (reference_clockwise ~id ~links ~key))
           (Ok
              (walked_of (fun () ->
                   Router.greedy_clockwise_generic ~level:(fun _ _ -> 0) ~n:budget_n ~ids ~links
                     ~src ~key)))))

(* Chord, Crescendo, Symphony, Cacophony (with lookahead) and Kademlia
   (XOR) overlays of the scenario, on random and corner ids, under a
   random dead mask; plus the generic engine over each clockwise
   overlay's adjacency at shrinking hop budgets. *)
let prop_driver_matches_reference_overlays sc =
  let rng = Rng.create (sc.case_seed + 67) in
  let on_pop pop () =
    let rings = Rings.build pop in
    let crashed = gen_crashes rng ~n:sc.n in
    let dead v = crashed.(v) in
    let clockwise =
      [ Chord.build pop; Crescendo.build rings ]
    and lookahead = [ Symphony.build rng pop; Cacophony.build rng rings ] in
    let cases ~lookahead ~xor overlay =
      let ids = (Overlay.population overlay).Population.ids and links = Overlay.links overlay in
      List.concat_map
        (fun key ->
          let src = Rng.int_below rng sc.n in
          [
            (fun () -> overlay_engines_match ~lookahead ~xor overlay ~dead ~src ~key);
            (fun () -> generic_matches ~n:sc.n ~ids ~links ~src ~key);
          ])
        (List.concat (List.init 4 (fun _ -> step_keys rng ~id:(Array.get ids) ~n:sc.n)))
    in
    first_error
      (List.concat_map (cases ~lookahead:false ~xor:false) clockwise
      @ List.concat_map (cases ~lookahead:true ~xor:false) lookahead
      @ cases ~lookahead:false ~xor:true (Kademlia.build rng pop))
  in
  first_error [ on_pop sc.pop; on_pop (corner_population rng sc.pop) ]

(* Chord-groups proximity routing (group sizes 1 to 16) and SkipNet
   name routing between random node pairs, on random and corner ids,
   traced, against their historical loops. *)
let prop_driver_matches_reference_groups sc =
  let rng = Rng.create (sc.case_seed + 71) in
  let pairs () = List.init 40 (fun _ -> (Rng.int_below rng sc.n, Rng.int_below rng sc.n)) in
  let on_pop pop () =
    let group_size = 1 lsl Rng.int_below rng 5 in
    let prox = Proximity.build_chord ~group_size pop ~node_latency:oracle in
    let t_bits = Proximity.group_bits ~n:sc.n ~group_size in
    let sk = Skipnet.build pop in
    let pointers = reference_skipnet_pointers pop sk in
    first_error
      (List.concat_map
         (fun (src, dst) ->
           [
             (fun () ->
               same "Proximity.route"
                 ~expected:(reference_chord_groups (Proximity.overlay prox) ~t_bits ~src ~dst)
                 (traced_walked pop ~kind:"proximity.chord_groups" (fun () ->
                      Some (Proximity.route prox ~src ~dst))));
             (fun () ->
               same "Skipnet.route_by_name"
                 ~expected:
                   (reference_route_by_name sk ~ids:pop.Population.ids ~pointers ~src ~dst)
                 (traced_walked pop ~kind:"skipnet.route_by_name" (fun () ->
                      Some (Skipnet.route_by_name sk ~src ~dst))));
           ])
         (pairs ()))
  in
  first_error [ on_pop sc.pop; on_pop (corner_population rng sc.pop) ]

(* The scenario's population (n <= 128) on distinct multiples of 2^25:
   a 7-bit identifier space, where ids share long prefixes and numeric
   routing climbs through small rings. *)
let coarse_population rng pop =
  let ids = Array.init 128 (fun i -> i lsl 25) in
  Rng.shuffle_in_place rng ids;
  { pop with Population.ids = Array.sub ids 0 (Population.size pop) }

(* SkipNet numeric routing from random sources, on random ids and on
   multiples of 2^25, toward random keys, node ids and their
   neighbours, and multiples of 2^25; traced, against its historical
   loop. *)
let prop_numeric_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 73) in
  let on_pop pop () =
    let ids = pop.Population.ids in
    let sk = Skipnet.build pop in
    let pointers = reference_skipnet_pointers pop sk in
    let keys =
      List.init 10 (fun _ -> Rng.int_below rng 128 lsl 25)
      @ List.concat (List.init 5 (fun _ -> step_keys rng ~id:(Array.get ids) ~n:sc.n))
    in
    first_error
      (List.map
         (fun key () ->
           let src = Rng.int_below rng sc.n in
           same "Skipnet.route_by_numeric"
             ~expected:(reference_route_by_numeric ~ids ~pointers ~src ~key)
             (traced_walked pop ~kind:"skipnet.route_by_numeric" (fun () ->
                  Some (Skipnet.route_by_numeric sk ~src ~key))))
         keys)
  in
  first_error [ on_pop sc.pop; on_pop (coarse_population rng sc.pop) ]

(* --- prefix CAN against its trie construction ------------------------ *)

(* The pointer-trie prefix CAN that the sorted range array replaced:
   bisection builds the trie, the owner walks it, and the neighbours
   across each prefix bit are collected from it and deduplicated. *)
module Trie_prefix_can = struct
  type trie = Leaf of int | Branch of trie * trie

  type t = {
    trie : trie;
    prefixes : (int * int) array;
    depth : int;
    neighbors : int array array;
  }

  let owner t key =
    let rec go trie i =
      match trie with
      | Leaf node -> node
      | Branch (zero, one) ->
          let bit = (key lsr (t.depth - 1 - i)) land 1 in
          go (if bit = 0 then zero else one) (i + 1)
    in
    go t.trie 0

  let compatible_leaves trie q len =
    let rec collect trie acc =
      match trie with Leaf node -> node :: acc | Branch (zero, one) -> collect zero (collect one acc)
    in
    let rec go trie i =
      if i = len then collect trie []
      else
        match trie with
        | Leaf node -> [ node ]
        | Branch (zero, one) ->
            let bit = (q lsr (len - 1 - i)) land 1 in
            go (if bit = 0 then zero else one) (i + 1)
    in
    go trie 0

  let build rng ~n =
    let prefixes = Array.make n (0, 0) in
    let next = ref 0 in
    let rec split count bits len =
      if count = 1 then begin
        let node = !next in
        incr next;
        prefixes.(node) <- (bits, len);
        Leaf node
      end
      else begin
        let half = count / 2 in
        let left_count = if count mod 2 = 0 then half else if Rng.bool rng then half + 1 else half in
        let zero = split left_count (bits lsl 1) (len + 1) in
        let one = split (count - left_count) ((bits lsl 1) lor 1) (len + 1) in
        Branch (zero, one)
      end
    in
    let trie = split n 0 0 in
    let depth = Array.fold_left (fun acc (_, len) -> max acc len) 0 prefixes in
    let neighbors =
      Array.init n (fun node ->
          let bits, len = prefixes.(node) in
          let acc = Hashtbl.create 16 in
          for i = 0 to len - 1 do
            let q = bits lxor (1 lsl (len - 1 - i)) in
            List.iter
              (fun v -> if v <> node then Hashtbl.replace acc v ())
              (compatible_leaves trie q len)
          done;
          Hashtbl.fold (fun v () out -> v :: out) acc [] |> Array.of_list)
    in
    { trie; prefixes; depth; neighbors }

  let mean_degree t =
    let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.neighbors in
    Float.of_int total /. Float.of_int (max 1 (Array.length t.prefixes))

  let route t ~src ~key =
    let rec go u acc guard =
      if guard > t.depth + 1 then failwith "Trie_prefix_can.route: did not converge"
      else begin
        let bits, len = t.prefixes.(u) in
        let key_prefix = if len = 0 then 0 else key lsr (t.depth - len) in
        if key_prefix = bits then List.rev (u :: acc)
        else begin
          let diff = key_prefix lxor bits in
          let i =
            let rec top j = if diff lsr j <> 0 then len - 1 - j else top (j - 1) in
            top (len - 1)
          in
          let a = (bits lsl (t.depth - len)) lor (key land ((1 lsl (t.depth - len)) - 1)) in
          let b = a lxor (1 lsl (t.depth - 1 - i)) in
          go (owner t b) (u :: acc) (guard + 1)
        end
      end
    in
    go src [] 0
end

(* Both built from one seed: equal depth, prefixes, owners (of every
   key, or of 2000 random keys once the depth passes 12), neighbour
   sets and mean degree, and equal paths on 200 random routes. *)
let prefix_can_matches_trie ~seed ~n =
  let pc = Prefix_can.build (Rng.create seed) ~n
  and trie = Trie_prefix_can.build (Rng.create seed) ~n in
  let depth = trie.Trie_prefix_can.depth in
  let rng = Rng.create (seed + 1) in
  let keys =
    if depth > 12 then List.init 2000 (fun _ -> Rng.int_below rng (1 lsl depth))
    else List.init (1 lsl depth) Fun.id
  in
  let sorted a = List.sort compare (Array.to_list a) in
  let show l = String.concat "," (List.map string_of_int l) in
  first_error
    ([
       (fun () ->
         if Prefix_can.depth pc = depth then Ok ()
         else err "depth %d, trie %d" (Prefix_can.depth pc) depth);
       (fun () ->
         let a = Prefix_can.mean_degree pc and b = Trie_prefix_can.mean_degree trie in
         if a = b then Ok () else err "mean degree %.17g, trie %.17g" a b);
     ]
    @ List.init n (fun v () ->
          let got = Prefix_can.prefix_of pc v and expected = trie.Trie_prefix_can.prefixes.(v) in
          if got = expected then Ok ()
          else err "node %d: prefix (%d, %d), trie (%d, %d)" v (fst got) (snd got) (fst expected)
              (snd expected))
    @ List.init n (fun v () ->
          let got = sorted (Prefix_can.neighbors pc v)
          and expected = sorted trie.Trie_prefix_can.neighbors.(v) in
          if got = expected then Ok ()
          else err "node %d: neighbours [%s], trie [%s]" v (show got) (show expected))
    @ List.map
        (fun key () ->
          let got = Prefix_can.owner pc key and expected = Trie_prefix_can.owner trie key in
          if got = expected then Ok () else err "key %d: owner %d, trie %d" key got expected)
        keys
    @ List.init 200 (fun _ ->
          let src = Rng.int_below rng n and key = Rng.int_below rng (1 lsl depth) in
          fun () ->
            let got = Array.to_list (Prefix_can.route pc ~src ~key).Route.nodes
            and expected = Trie_prefix_can.route trie ~src ~key in
            if got = expected then Ok ()
            else err "route %d -> key %d: [%s], trie [%s]" src key (show got) (show expected)))

(* n drawn from 1..600, plus every power of two up to 2^13 (complete
   trees, and depth 13 for the sampled owners). *)
let prop_prefix_can_matches_trie () =
  let drawn = List.init 30 (fun case -> 1 + Rng.int_below (Rng.create (10169 + case)) 600) in
  List.iteri
    (fun case n ->
      let seed = 10171 + (1000 * case) in
      match prefix_can_matches_trie ~seed ~n with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d, n = %d: %s" seed n msg
      | exception e -> Alcotest.failf "seed %d, n = %d: %s" seed n (Printexc.to_string e))
    (drawn @ List.init 14 (fun k -> 1 lsl k))

(* --- the event queue and the frozen Net's timer skip ---------------- *)

module Leaf_sets = Canon_sim.Leaf_sets

(* A sorted-list priority queue: the model [Event_queue] is checked
   against, and the boxed queue of the reference event loop below. A
   new entry goes after every entry with the same or an earlier time,
   which is the (time, insertion index) order. *)
module Model_queue = struct
  type 'a t = { mutable entries : (float * 'a) list; mutable size : int }

  let create () = { entries = []; size = 0 }

  let push q ~time x =
    let rec insert = function
      | ((t, _) as e) :: rest when t <= time -> e :: insert rest
      | rest -> (time, x) :: rest
    in
    q.entries <- insert q.entries;
    q.size <- q.size + 1

  let pop q =
    match q.entries with
    | [] -> None
    | e :: rest ->
        q.entries <- rest;
        q.size <- q.size - 1;
        Some e

  let clear q =
    q.entries <- [];
    q.size <- 0
end

type queue_op = Push of int | Pop | Take | Clear

let show_queue_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Pop -> "pop"
  | Take -> "take"
  | Clear -> "clear"

(* Pushes at 16 integer times (so ties are everywhere) interleaved with
   both pops and rare clears: depths reach the hundreds, far past the
   initial capacity. The payload is the op's index, so FIFO order among
   ties is visible. *)
let prop_event_queue_matches_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 1500)
        (frequency
           [
             (200, map (fun t -> Push t) (int_bound 15));
             (50, return Pop);
             (50, return Take);
             (1, return Clear);
           ]))
  in
  let arb =
    QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops)) gen
  in
  QCheck.Test.make ~count:200 ~name:"Event_queue = sorted-list model" arb (fun ops ->
      let q = Event_queue.create () and m = Model_queue.create () in
      List.iteri
        (fun i op ->
          (match op with
          | Push t ->
              Event_queue.push q ~time:(Float.of_int t) i;
              Model_queue.push m ~time:(Float.of_int t) i
          | Pop ->
              if Event_queue.pop q <> Model_queue.pop m then
                QCheck.Test.fail_reportf "op %d: pop differs from the model" i
          | Take -> (
              match Model_queue.pop m with
              | None -> (
                  match Event_queue.take q with
                  | _ -> QCheck.Test.fail_reportf "op %d: take on an empty queue returned" i
                  | exception Invalid_argument _ -> ())
              | Some (time, x) ->
                  let time' = Event_queue.min_time q in
                  let x' = Event_queue.take q in
                  if time' <> time || x' <> x then
                    QCheck.Test.fail_reportf "op %d: took (%g, %d), model (%g, %d)" i time' x'
                      time x)
          | Clear ->
              Event_queue.clear q;
              Model_queue.clear m);
          if Event_queue.size q <> m.Model_queue.size || Event_queue.is_empty q <> (m.size = 0)
          then QCheck.Test.fail_reportf "op %d: size %d, model %d" i (Event_queue.size q) m.size)
        ops;
      true)

(* [Net]'s lookup loop as it was before frozen nets stopped scheduling
   dead timers: every message pushes its Timeout, and each [lookup]
   drains a fresh [Model_queue], and each hop is decided by the
   two-pass [reference_step], not by the library's sorted step.
   Metrics, trace spans and the leaf-set cache are left out, since none
   of them feeds a result. *)
module Reference_net = struct
  type lookup = {
    key : Id.t;
    started : float;
    on_done : Async_route.t -> unit;
    mutable rev_path : int list;
    mutable hops : int;
    mutable messages : int;
    mutable retries : int;
    mutable timeouts : int;
    mutable losses : int;
    mutable reanchors : int;
    mutable deviated : bool;
    mutable newly_suspected : int list;
    mutable result : Async_route.t option;
  }

  type msg = { lk : lookup; from_ : int; to_ : int; attempt : int; mutable got_through : bool }

  type event = Send of msg | Deliver of msg | Timeout of msg

  type t = {
    overlay : Overlay.t;
    plan : Fault_plan.t;
    policy : Rpc.policy;
    rng : Rng.t;
    rings : Rings.t option;
    live : Live_view.t option;
    suspected : bool array;
  }

  let leaf_width = 4

  let node_latency = int_oracle

  let node_live t v = match t.live with None -> true | Some lv -> Live_view.is_live lv v

  let node_links t v =
    match t.live with None -> Overlay.links t.overlay v | Some lv -> Live_view.links lv v

  let leaf_sets t u =
    match (t.live, t.rings) with
    | Some lv, _ -> Leaf_sets.successors (Live_view.rings lv) ~node:u ~width:leaf_width
    | None, Some rings -> Leaf_sets.successors rings ~node:u ~width:leaf_width
    | None, None -> [||]

  let reanchor_candidate t ~at ~key =
    let id_at = Overlay.id t.overlay at in
    let du = Id.distance id_at key in
    if du = 0 then None
    else begin
      let best = ref (-1) and best_d = ref max_int in
      Array.iter
        (Array.iter (fun w ->
             if (not t.suspected.(w)) && node_live t w then begin
               let dw = Id.distance id_at (Overlay.id t.overlay w) in
               if dw > 0 && dw <= du && dw < !best_d then begin
                 best := w;
                 best_d := dw
               end
             end))
        (leaf_sets t at);
      if !best < 0 then None else Some !best
    end

  let finish t p ~now ?failure status =
    if p.result = None then begin
      List.iter (fun v -> t.suspected.(v) <- false) p.newly_suspected;
      p.newly_suspected <- [];
      let r =
        Async_route.
          {
            status;
            failure;
            route = Route.{ nodes = Array.of_list (List.rev p.rev_path) };
            wall_ms = Float.min (now -. p.started) t.policy.Rpc.deadline_ms;
            messages = p.messages;
            retries = p.retries;
            timeouts = p.timeouts;
            losses = p.losses;
            reanchors = p.reanchors;
          }
      in
      p.result <- Some r;
      p.on_done r
    end

  let transmit t ~now ~push m =
    let p = m.lk in
    p.messages <- p.messages + 1;
    let lost = Fault_plan.draw_lost t.plan t.rng in
    if lost then p.losses <- p.losses + 1;
    let lat = node_latency m.from_ m.to_ in
    if
      (not lost)
      && (not (Fault_plan.is_crashed t.plan m.to_))
      && lat <= t.policy.Rpc.timeout_ms
    then push ~time:(now +. lat) (Deliver m);
    push ~time:(now +. t.policy.Rpc.timeout_ms) (Timeout m)

  let forward t p ~now ~push u v =
    transmit t ~now ~push { lk = p; from_ = u; to_ = v; attempt = 0; got_through = false }

  (* The decision and the fault-free hop, each from the two-pass
     [reference_step]. *)
  let step_at t p ~now ~push u =
    let decide dead =
      reference_step ~id:(Overlay.id t.overlay) ~links:(node_links t) ~dead ~at:u ~key:p.key
    in
    match decide (fun v -> t.suspected.(v)) with
    | Router.Forward v ->
        if decide (fun _ -> false) <> Router.Forward v then p.deviated <- true;
        forward t p ~now ~push u v
    | Router.Arrived ->
        finish t p ~now (if p.deviated then Async_route.Rerouted else Async_route.Delivered)
    | Router.Blocked -> (
        match reanchor_candidate t ~at:u ~key:p.key with
        | Some v ->
            p.reanchors <- p.reanchors + 1;
            p.deviated <- true;
            forward t p ~now ~push u v
        | None -> finish t p ~now Async_route.Failed ~failure:Async_route.No_candidate)

  let launch t ~now ~push ~src ~key ~on_done =
    let p =
      {
        key;
        started = now;
        on_done;
        rev_path = [ src ];
        hops = 0;
        messages = 0;
        retries = 0;
        timeouts = 0;
        losses = 0;
        reanchors = 0;
        deviated = false;
        newly_suspected = [];
        result = None;
      }
    in
    step_at t p ~now ~push src;
    p

  let handle t ~now ~push ev =
    let m = match ev with Send m | Deliver m | Timeout m -> m in
    let p = m.lk in
    if p.result = None then
      if now -. p.started > t.policy.Rpc.deadline_ms then
        finish t p ~now Async_route.Failed ~failure:Async_route.Deadline
      else
        match ev with
        | Send m -> transmit t ~now ~push m
        | Deliver m ->
            if node_live t m.to_ then begin
              m.got_through <- true;
              p.rev_path <- m.to_ :: p.rev_path;
              p.hops <- p.hops + 1;
              if p.hops > Overlay.size t.overlay + 1 then
                finish t p ~now Async_route.Failed ~failure:Async_route.Hop_budget
              else step_at t p ~now ~push m.to_
            end
        | Timeout m ->
            if not m.got_through then begin
              p.timeouts <- p.timeouts + 1;
              if m.attempt < t.policy.Rpc.max_retries then begin
                p.retries <- p.retries + 1;
                let retry = m.attempt + 1 in
                let delay = Rpc.backoff_ms t.policy ~retry t.rng in
                push ~time:(now +. delay) (Send { m with attempt = retry; got_through = false })
              end
              else begin
                p.deviated <- true;
                if not t.suspected.(m.to_) then begin
                  t.suspected.(m.to_) <- true;
                  p.newly_suspected <- m.to_ :: p.newly_suspected
                end;
                if node_live t m.from_ then step_at t p ~now ~push m.from_
                else finish t p ~now Async_route.Failed ~failure:Async_route.No_candidate
              end
            end

  let lookup t ~src ~key =
    let q = Model_queue.create () in
    let push ~time ev = Model_queue.push q ~time ev in
    let p = launch t ~now:0.0 ~push ~src ~key ~on_done:ignore in
    let rec run last =
      if p.result = None then
        match Model_queue.pop q with
        | None -> finish t p ~now:last Async_route.Failed ~failure:Async_route.No_candidate
        | Some (time, ev) ->
            handle t ~now:time ~push ev;
            run time
    in
    run 0.0;
    Option.get p.result
end

let show_route (r : Async_route.t) =
  Printf.sprintf "%s%s [%s] %.17g ms, %d msgs, %d retries, %d timeouts, %d losses, %d reanchors"
    (Async_route.status_to_string r.status)
    (match r.failure with None -> "" | Some f -> "/" ^ Async_route.failure_to_string f)
    (show_links r.route.Route.nodes) r.wall_ms r.messages r.retries r.timeouts r.losses
    r.reanchors

(* A net configuration for the timer-skip property: crashes, loss below
   0.5, a timeout within the oracle's 5..44 ms range (so edges of latency
   = timeout land exactly at it), and half the time a deadline just
   above the timeout, so that delivered hops keep their timers and those
   timers fail lookups. *)
let gen_net_config rng ~n =
  let timeout = Float.of_int (2 * (10 + Rng.int_below rng 13)) in
  let loss = if Rng.bool rng then Rng.float rng *. 0.5 else 0.0 in
  let plan = Fault_plan.create ~loss ~n () in
  Array.iteri (fun v c -> if c then Fault_plan.crash plan v) (gen_crashes rng ~n);
  let deadline =
    if Rng.bool rng then timeout +. Float.of_int (1 + Rng.int_below rng 20) else 60_000.0
  in
  let policy =
    {
      Rpc.timeout_ms = timeout;
      max_retries = Rng.int_below rng 3;
      backoff_base_ms = 5.0;
      backoff_factor = 2.0;
      jitter = (if Rng.bool rng then 0.0 else 0.5);
      deadline_ms = deadline;
    }
  in
  (plan, policy)

(* A [Net] and its reference twin over the same overlay, plan and
   policy, each with its own RNG from one seed. *)
let net_pair rng ~n ?rings ?live overlay =
  let plan, policy = gen_net_config rng ~n in
  let seed = Rng.int_below rng (1 lsl 30) in
  let net_rng = Rng.create seed and ref_rng = Rng.create seed in
  let net = Net.create ~policy ~plan ?rings ?live ~rng:net_rng ~node_latency:int_oracle overlay in
  let reference =
    Reference_net.
      {
        overlay;
        plan;
        policy;
        rng = ref_rng;
        rings;
        live;
        suspected = Array.make n false;
      }
  in
  (net, net_rng, reference)

let nodes_where n f = Array.of_list (List.filter f (List.init n Fun.id))

(* Both nets leave their RNG at the same point and suspect the same
   nodes. *)
let same_afterwards what net net_rng (reference : Reference_net.t) =
  let suspects = nodes_where (Array.length reference.suspected) (Array.get reference.suspected) in
  let draw = Rng.int_below net_rng (1 lsl 30) in
  let ref_draw = Rng.int_below reference.rng (1 lsl 30) in
  if draw <> ref_draw then err "%s: next RNG draw %d, reference %d" what draw ref_draw
  else compare_links (what ^ ": suspects") ~expected:suspects ~got:(Net.suspected_nodes net)

let non_crashed plan nodes =
  Array.of_list (List.filter (fun v -> not (Fault_plan.is_crashed plan v)) (Array.to_list nodes))

(* Sequential [Net.lookup]s equal the reference's, whole [Async_route.t]
   included. *)
let lookups_match rng sc ~what ?rings overlay =
  let net, net_rng, reference = net_pair rng ~n:sc.n ?rings overlay in
  let up = non_crashed (Net.plan net) (Array.init sc.n Fun.id) in
  let rec go i =
    if i >= 12 then same_afterwards what net net_rng reference
    else begin
      let src = Rng.pick rng up in
      let key =
        if Rng.bool rng then Id.random rng
        else sc.pop.Population.ids.(Rng.int_below rng sc.n)
      in
      let expected = Reference_net.lookup reference ~src ~key in
      let got = Net.lookup net ~src ~key in
      if expected <> got then
        err "%s, lookup %d: reference %s, got %s" what i (show_route expected) (show_route got)
      else go (i + 1)
    end
  in
  go 0

(* A queue payload shared by both sides of a merged run. *)
type 'ev job = Start of int | Member of (unit -> unit) | Msg of 'ev

(* Lookups [starts] (launch time, source picker, key) and membership
   changes [members] on one caller-owned queue, drained to the end: the
   time each lookup resolved at and its result, in launch order. *)
let run_merged ~push ~pop ~launch ~handle ~members starts =
  let resolved = Array.make (Array.length starts) None in
  let clock = ref 0.0 in
  let push_msg ~time ev = push ~time (Msg ev) in
  List.iter (fun (time, change) -> push ~time (Member change)) members;
  Array.iteri (fun i (time, _, _) -> push ~time (Start i)) starts;
  let rec drain () =
    match pop () with
    | None -> ()
    | Some (time, job) ->
        clock := time;
        (match job with
        | Member change -> change ()
        | Start i -> (
            let _, pick_src, key = starts.(i) in
            match pick_src () with
            | None -> ()
            | Some src ->
                launch ~now:time ~push:push_msg ~src ~key ~on_done:(fun r ->
                    resolved.(i) <- Some (!clock, r)))
        | Msg ev -> handle ~now:time ~push:push_msg ev);
        drain ()
  in
  drain ();
  resolved

let compare_merged what ~expected ~got =
  let show = function
    | None -> "unresolved"
    | Some (time, r) -> Printf.sprintf "at %g: %s" time (show_route r)
  in
  let rec go i =
    if i >= Array.length expected then Ok ()
    else if expected.(i) <> got.(i) then
      err "%s, lookup %d: reference %s, got %s" what i (show expected.(i)) (show got.(i))
    else go (i + 1)
  in
  go 0

(* Runs the same merged schedule through [Net.launch]/[handle] on an
   [Event_queue] and through the reference on a [Model_queue]. [setup]
   builds each side's membership: its overlay, live view and membership
   changes, and a source picker per launch. Both sides are built from
   the same seeds; the first runs its [Net], the second its reference. *)
let merged_match rng sc ~what ?rings ~setup () =
  let seed = Rng.int_below rng (1 lsl 30) in
  let side () =
    let overlay, live, members, pick = setup () in
    let net, net_rng, reference = net_pair (Rng.create seed) ~n:sc.n ?rings ?live overlay in
    let key_rng = Rng.create (seed + 1) in
    let starts =
      Array.init 10 (fun i ->
          let draw = Rng.int_below key_rng (1 lsl 30) in
          let key = Id.random key_rng in
          let time = Float.of_int ((9 * i) + Rng.int_below key_rng 3) in
          (time, pick reference.Reference_net.plan draw, key))
    in
    (net, net_rng, reference, members, starts)
  in
  let net, net_rng, _, members, starts = side () in
  let q = Event_queue.create () in
  let got =
    run_merged
      ~push:(fun ~time x -> Event_queue.push q ~time x)
      ~pop:(fun () -> Event_queue.pop q)
      ~launch:(fun ~now ~push ~src ~key ~on_done ->
        ignore (Net.launch net ~on_done ~now ~push ~src ~key))
      ~handle:(Net.handle net) ~members starts
  in
  let _, _, reference, members, starts = side () in
  let mq = Model_queue.create () in
  let expected =
    run_merged
      ~push:(fun ~time x -> Model_queue.push mq ~time x)
      ~pop:(fun () -> Model_queue.pop mq)
      ~launch:(fun ~now ~push ~src ~key ~on_done ->
        ignore (Reference_net.launch reference ~now ~push ~src ~key ~on_done))
      ~handle:(Reference_net.handle reference) ~members starts
  in
  match compare_merged what ~expected ~got with
  | Error _ as e -> e
  | Ok () -> same_afterwards what net net_rng reference

(* A frozen net: no membership changes, sources drawn among the
   non-crashed nodes. *)
let frozen_setup sc overlay () =
  let pick plan draw =
    let up = non_crashed plan (Array.init sc.n Fun.id) in
    fun () -> Some up.(draw mod Array.length up)
  in
  (overlay, None, [], pick)

(* A live view with joins and leaves every few ms while lookups are in
   flight, so targets depart mid-hop. Victims and joiners are pre-drawn
   indices into the membership of the moment. *)
let live_setup sc ~chord ~seed () =
  let rng = Rng.create seed in
  let present = nodes_where sc.n (fun _ -> Rng.int_below rng 4 <> 0) in
  let present = if Array.length present >= 2 then present else [| 0; 1 |] in
  let m = Maintenance.create sc.pop ~present in
  let view = if chord then Live_view.chord m else Live_view.crescendo m in
  let change ~joins draw () =
    if joins then begin
      let absent = nodes_where sc.n (fun v -> not (Maintenance.is_present m v)) in
      if Array.length absent > 0 then begin
        let v = absent.(draw mod Array.length absent) in
        ignore (Maintenance.join m v);
        Live_view.on_hook view (Churn.Join v)
      end
    end
    else if Maintenance.count m > 2 then begin
      let live = Maintenance.present m in
      let v = live.(draw mod Array.length live) in
      ignore (Maintenance.leave m v);
      Live_view.on_hook view (Churn.Leave v)
    end
  in
  let members =
    List.init 40 (fun j ->
        let time = Float.of_int ((3 * j) + Rng.int_below rng 3) in
        let joins = Rng.bool rng in
        (time, change ~joins (Rng.int_below rng (1 lsl 30))))
  in
  let pick plan draw () =
    let up = non_crashed plan (Maintenance.present m) in
    if Array.length up = 0 then None else Some up.(draw mod Array.length up)
  in
  (Maintenance.overlay m, Some view, members, pick)

(* Skipping a frozen net's dead timers changes nothing a caller can see:
   [Net.lookup] returns the reference's whole [Async_route.t], lookups
   merged on a caller-owned queue resolve at the same times with the
   same results, and the RNG and suspicions end in the same state. On
   Chord and Crescendo, with and without leaf-set rings, and on live
   views under churn, where every timer must stay. *)
let prop_net_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 61) in
  let frozen (name, overlay) =
    List.concat_map
      (fun rings ->
        let what = if Option.is_some rings then name ^ " ~rings" else name in
        [
          (fun () -> lookups_match rng sc ~what ?rings overlay);
          (fun () ->
            merged_match rng sc ~what:(what ^ ", merged") ?rings
              ~setup:(frozen_setup sc overlay) ());
        ])
      [ None; Some sc.rings ]
  in
  let live chord =
    let name = if chord then "live chord" else "live crescendo" in
    fun () ->
      let seed = Rng.int_below rng (1 lsl 30) in
      merged_match rng sc ~what:name ~setup:(live_setup sc ~chord ~seed) ()
  in
  first_error
    (List.concat_map frozen
       [ ("chord", Chord.build sc.pop); ("crescendo", Crescendo.build sc.rings) ]
    @ [ live true; live false ])

(* --- ring shifts ---------------------------------------------------- *)

(* The ring queries answered by linear scans of the members' ids and
   nodes in increasing id order, raising as [Ring] does on an empty
   ring. *)
module Model_ring = struct
  type t = { ids : int array; nodes : int array }

  let of_pairs pairs =
    { ids = Array.of_list (List.map fst pairs); nodes = Array.of_list (List.map snd pairs) }

  let size m = Array.length m.ids

  let non_empty m = if size m = 0 then invalid_arg "Ring: empty ring"

  let contains m q = Array.mem q m.ids

  (* Index of the first id >= q, or the size. *)
  let rank_at_or_after m q =
    let i = ref 0 in
    while !i < size m && m.ids.(!i) < q do
      incr i
    done;
    !i

  (* Index of the first id >= q, wrapping to 0. *)
  let first_index m q =
    let i = rank_at_or_after m q in
    if i < size m then i else 0

  let first_at_or_after m q =
    non_empty m;
    m.nodes.(first_index m q)

  let predecessor_of_id m q =
    non_empty m;
    let last = ref (size m - 1) in
    Array.iteri (fun i id -> if id <= q then last := i) m.ids;
    m.nodes.(!last)

  let successor_distance m id =
    non_empty m;
    if size m = 1 then Id.space
    else
      let d = Id.distance id m.ids.(first_index m (Id.add id 1)) in
      if d = 0 then Id.space else d

  let finger m id d =
    non_empty m;
    if d < 1 then invalid_arg "Ring.finger: distance must be >= 1";
    let i = first_index m (Id.add id d) in
    if m.ids.(i) = id then None else Some m.nodes.(i)

  let arc_count m ~start ~len =
    Array.fold_left (fun n id -> if Id.distance start id < len then n + 1 else n) 0 m.ids
end

(* Ids where a 4-byte slot's sign flips, or the id space ends. *)
let sign_corners = [ 0; (1 lsl 31) - 1; 1 lsl 31; Id.space - 1 ]

(* Every query of [ring] against [model], at every member id and its
   two neighbours and at [sign_corners]; arc lengths and finger
   distances cycle through their corner values. *)
let ring_queries_match ring pairs =
  let model = Model_ring.of_pairs pairs in
  let lens = [| 0; 1; 1 lsl 31; Id.space - 1; Id.space |] and ds = [| 1; 2; 1 lsl 31; Id.space - 1 |] in
  let attempt f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg in
  let points =
    List.concat_map (fun (id, _) -> [ Id.add id (-1); id; Id.add id 1 ]) pairs @ sign_corners
  in
  List.find_map
    (fun (i, q) ->
      let same name got expected = if got () = expected () then None else Some (name (), q) in
      let len = lens.(i mod Array.length lens) and d = ds.(i mod Array.length ds) in
      List.find_map Fun.id
        [
          same (fun () -> "contains")
            (fun () -> Ring.contains ring q)
            (fun () -> Model_ring.contains model q);
          same (fun () -> "first_at_or_after")
            (fun () -> attempt (fun () -> Ring.first_at_or_after ring q))
            (fun () -> attempt (fun () -> Model_ring.first_at_or_after model q));
          same (fun () -> "successor_of_id")
            (fun () -> attempt (fun () -> Ring.successor_of_id ring q))
            (fun () -> attempt (fun () -> Model_ring.first_at_or_after model (Id.add q 1)));
          same (fun () -> "predecessor_of_id")
            (fun () -> attempt (fun () -> Ring.predecessor_of_id ring q))
            (fun () -> attempt (fun () -> Model_ring.predecessor_of_id model q));
          same (fun () -> "successor_distance")
            (fun () -> attempt (fun () -> Ring.successor_distance ring q))
            (fun () -> attempt (fun () -> Model_ring.successor_distance model q));
          same
            (fun () -> Printf.sprintf "arc_count (len %d)" len)
            (fun () -> Ring.arc_count ring ~start:q ~len)
            (fun () -> Model_ring.arc_count model ~start:q ~len);
          same
            (fun () -> Printf.sprintf "finger (d %d)" d)
            (fun () -> attempt (fun () -> Ring.finger ring q d))
            (fun () -> attempt (fun () -> Model_ring.finger model q d));
          same (fun () -> "rank_at_or_after")
            (fun () -> Ring.rank_at_or_after ring q)
            (fun () -> Model_ring.rank_at_or_after model q);
        ])
    (List.mapi (fun i q -> (i, q)) points)

(* [Ring.insert]/[remove] against a sorted association list, from rings
   of 0 to 3 members (so the buffers grow many times over) through a few
   hundred operations on corner, sign-corner and random identifiers:
   after every operation the slots and every query agree with the
   model. *)
let prop_ring_matches_model () =
  for case = 0 to 39 do
    let rng = Rng.create (9990 + case) in
    let pool =
      Array.concat
        [
          corner_ids;
          Array.of_list sign_corners;
          Array.init (8 + Rng.int_below rng 120) (fun _ -> Id.random rng);
        ]
    in
    let pool = Array.of_list (List.sort_uniq compare (Array.to_list pool)) in
    let k = Rng.int_below rng 4 in
    let initial = Array.init k (fun i -> (i * 7) mod Array.length pool) in
    let initial = List.sort_uniq compare (Array.to_list initial) in
    let ring = Ring.of_members ~ids:pool ~members:(Array.of_list initial) in
    let model = ref (List.map (fun v -> (pool.(v), v)) initial) in
    let fail fmt = Printf.ksprintf (fun s -> Alcotest.failf "case %d: %s" case s) fmt in
    for op = 0 to 299 do
      let v = Rng.int_below rng (Array.length pool) in
      let id = pool.(v) in
      let member = List.mem_assoc id !model in
      if Rng.int_below rng 3 > 0 then begin
        if member then
          Alcotest.check_raises "duplicate insert"
            (Invalid_argument "Ring.insert: duplicate identifier")
            (fun () -> Ring.insert ring ~id ~node:v)
        else begin
          Ring.insert ring ~id ~node:v;
          model := List.sort compare ((id, v) :: !model)
        end
      end
      else if member then begin
        Ring.remove ring ~id;
        model := List.remove_assoc id !model
      end
      else
        Alcotest.check_raises "absent remove"
          (Invalid_argument "Ring.remove: identifier not present")
          (fun () -> Ring.remove ring ~id);
      if Ring.size ring <> List.length !model then
        fail "op %d: size %d, model %d" op (Ring.size ring) (List.length !model);
      List.iteri
        (fun rank (id, v) ->
          if Ring.id_at ring rank <> id || Ring.node_at ring rank <> v then
            fail "op %d: rank %d holds (%d, %d), model (%d, %d)" op rank (Ring.id_at ring rank)
              (Ring.node_at ring rank) id v)
        !model;
      if Ring.members ring <> Array.of_list (List.map snd !model) then fail "op %d: members" op;
      match ring_queries_match ring !model with
      | Some (name, q) -> fail "op %d: %s at %d differs from the model" op name q
      | None -> ()
    done
  done

(* Node indices are stored as 32-bit signed slots: [2^31 - 1] goes in
   and comes back, [2^31] and negative ones are refused, as are ids
   outside the id space and ranks past the size. *)
let prop_ring_slot_bounds () =
  let ring = Ring.create ~capacity:0 in
  let top = (1 lsl 31) - 1 in
  Ring.insert ring ~id:(Id.space - 1) ~node:top;
  Ring.insert ring ~id:(1 lsl 31) ~node:0;
  Alcotest.(check (list int)) "members" [ 0; top ] (Array.to_list (Ring.members ring));
  Alcotest.(check int) "id at the sign corner" (Id.space - 1) (Ring.id_at ring 1);
  List.iter
    (fun (what, id, node, msg) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () -> Ring.insert ring ~id ~node))
    [
      ("node 2^31", 5, 1 lsl 31, "Ring: node index out of range");
      ("node 2^32", 6, 1 lsl 32, "Ring: node index out of range");
      ("negative node", 7, -1, "Ring: node index out of range");
      ("id 2^32", Id.space, 1, "Ring: identifier out of range");
      ("negative id", -1, 1, "Ring: identifier out of range");
    ];
  Alcotest.(check int) "refused inserts leave the ring" 2 (Ring.size ring);
  (* The buffers have room past [size], but no rank there is read. *)
  Alcotest.check_raises "rank past the size" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Ring.node_at ring 2))

(* --- incremental maintenance ---------------------------------------- *)

(* The historical [Maintenance] join and leave, kept as the reference:
   after a membership event, recompute the links of every node that
   may have changed -- a leaver's in-link holders and ring
   predecessors, a joiner's finger candidates found by three ring
   searches per (ring, k) -- and count those whose set differs. *)
module Reference_maintenance = struct
  type t = {
    pop : Population.t;
    rings : Rings.t;
    present : bool array;
    links : int array array;
    in_links : (int, unit) Hashtbl.t array;
  }

  let mem_link (v : int) links = Array.exists (fun w -> w = v) links

  let set_links t node new_links =
    let old = t.links.(node) in
    Array.iter
      (fun v -> if not (mem_link v new_links) then Hashtbl.remove t.in_links.(v) node)
      old;
    Array.iter
      (fun v -> if not (mem_link v old) then Hashtbl.replace t.in_links.(v) node ())
      new_links;
    t.links.(node) <- new_links

  let create pop ~present =
    let n = Population.size pop in
    let rings = Rings.build_partial pop ~present in
    let t =
      {
        pop;
        rings;
        present = Array.make n false;
        links = Array.make n [||];
        in_links = Array.init n (fun _ -> Hashtbl.create 8);
      }
    in
    Array.iter (fun node -> t.present.(node) <- true) present;
    Array.iter (fun node -> set_links t node (Crescendo.links_of_node rings node)) present;
    t

  let refresh t candidates =
    Hashtbl.fold
      (fun node () changed ->
        if not t.present.(node) then changed
        else
          let fresh = Crescendo.links_of_node t.rings node in
          if fresh = t.links.(node) then changed
          else begin
            set_links t node fresh;
            changed + 1
          end)
      candidates 0

  let finger_candidates t m ~into =
    let id_m = t.pop.Population.ids.(m) in
    Array.iter
      (fun domain ->
        let ring = Rings.ring t.rings domain in
        if Ring.size ring >= 2 then begin
          let p = Ring.predecessor_of_id ring (Id.add id_m (-1)) in
          if p <> m then begin
            let d_pm = Id.distance t.pop.Population.ids.(p) id_m in
            for k = 0 to Id.bits - 1 do
              let hi = 1 lsl k in
              let lo = max 0 (hi - d_pm) in
              let len = hi - lo in
              if len > 0 then begin
                let start = Id.add t.pop.Population.ids.(p) (-(hi - 1)) in
                let first = Ring.rank_at_or_after ring start in
                for i = 0 to Ring.arc_count ring ~start ~len - 1 do
                  let y = Ring.node_at ring ((first + i) mod Ring.size ring) in
                  if y <> m then Hashtbl.replace into y ()
                done
              end
            done
          end
        end)
      (Rings.chain t.rings m)

  let join t m =
    let n = Population.size t.pop in
    let id_m = t.pop.Population.ids.(m) in
    let bootstrap =
      Array.fold_left
        (fun acc domain ->
          match acc with
          | Some _ -> acc
          | None ->
              let ring = Rings.ring t.rings domain in
              if Ring.size ring > 0 then Some (Ring.node_at ring 0) else None)
        None (Rings.chain t.rings m)
    in
    let routing_messages =
      match bootstrap with
      | None -> 0
      | Some b ->
          Route.hops
            (Router.greedy_clockwise_generic ~level:(Population.link_level t.pop) ~n
               ~ids:t.pop.Population.ids
               ~links:(fun v -> t.links.(v))
               ~src:b ~key:id_m)
    in
    Rings.add_node t.rings m;
    t.present.(m) <- true;
    let my_links = Crescendo.links_of_node t.rings m in
    set_links t m my_links;
    let candidates = Hashtbl.create 64 in
    finger_candidates t m ~into:candidates;
    {
      Maintenance.routing_messages;
      link_messages = Array.length my_links;
      notify_messages = refresh t candidates;
    }

  let leave t m =
    let candidates = Hashtbl.create 64 in
    Hashtbl.iter (fun u () -> if u <> m then Hashtbl.replace candidates u ()) t.in_links.(m);
    let id_m = t.pop.Population.ids.(m) in
    Array.iter
      (fun domain ->
        let ring = Rings.ring t.rings domain in
        if Ring.size ring >= 2 then begin
          let p = Ring.predecessor_of_id ring (Id.add id_m (-1)) in
          if p <> m then Hashtbl.replace candidates p ()
        end)
      (Rings.chain t.rings m);
    let link_messages = Array.length t.links.(m) in
    Rings.remove_node t.rings m;
    t.present.(m) <- false;
    set_links t m [||];
    { Maintenance.routing_messages = 0; link_messages; notify_messages = refresh t candidates }
end

let show_stats (s : Maintenance.stats) =
  Printf.sprintf "(%d, %d, %d)" s.routing_messages s.link_messages s.notify_messages

type membership_event = Join of int | Leave of int

let show_event = function
  | Join v -> Printf.sprintf "join %d" v
  | Leave v -> Printf.sprintf "leave %d" v

(* Every node's links, [||] for absent ones. *)
let link_snapshot m n =
  Array.init n (fun v -> if Maintenance.is_present m v then Maintenance.links m v else [||])

(* A live node of [m] whose row does not strictly ascend by clockwise
   distance from it, with that row; [None] when every row is sorted as
   [Router.step_clockwise] requires. *)
let unsorted_row pop m =
  let ids = pop.Population.ids in
  let ascends v row =
    let rec from i prev =
      i = Array.length row
      ||
      let d = Id.distance ids.(v) ids.(row.(i)) in
      d > prev && from (i + 1) d
    in
    from 0 0
  in
  List.find_map
    (fun v ->
      if Maintenance.is_present m v && not (ascends v (Maintenance.links m v)) then
        Some (v, Maintenance.links m v)
      else None)
    (List.init (Population.size pop) Fun.id)

let rows_sorted what pop m =
  match unsorted_row pop m with
  | None -> Ok ()
  | Some (v, row) -> err "%s: node %d's row [%s] is not clockwise" what v (show_links row)

(* A random starting membership: empty, one to three nodes (so rings of
   one to three members are everywhere), or a random fraction. *)
let gen_membership rng n =
  match Rng.int_below rng 3 with
  | 0 -> [||]
  | 1 ->
      let picks = List.init (1 + Rng.int_below rng 3) (fun _ -> Rng.int_below rng n) in
      Array.of_list (List.sort_uniq compare picks)
  | _ ->
      let frac = Rng.float rng in
      Array.of_list (List.filter (fun _ -> Rng.float rng < frac) (List.init n Fun.id))

(* The next event: a join of a random node that [can_join], or a leave
   of a random one that [can_leave], whichever is possible. *)
let gen_event rng ~n ~can_join ~can_leave =
  let nodes = List.init n Fun.id in
  let pick ok =
    let pool = List.filter ok nodes in
    List.nth pool (Rng.int_below rng (List.length pool))
  in
  let joinable = List.exists can_join nodes and leavable = List.exists can_leave nodes in
  if joinable && ((not leavable) || Rng.bool rng) then Join (pick can_join)
  else Leave (pick can_leave)

(* Patched membership events are exact. Over random join/leave sequences
   on ragged hierarchies, corner-id populations and tiny memberships:
   after every event each live node's links are byte-equal to the
   static construction and strictly ascend clockwise, [notify_messages] counts exactly the other
   nodes whose links changed, and all three costs equal those of the
   full-recompute reference. A failure names the first failing event,
   i.e. the shortest failing prefix of the sequence. *)
let prop_patched_maintenance_exact sc =
  let rng = Rng.create (sc.case_seed + 67) in
  let pop = if Rng.bool rng then sc.pop else corner_population rng sc.pop in
  let initial = gen_membership rng sc.n in
  let m = Maintenance.create pop ~present:initial in
  let r = Reference_maintenance.create pop ~present:initial in
  let events = 1 + Rng.int_below rng 120 in
  let rec step i prefix =
    if i = events then Ok ()
    else begin
      let ev =
        gen_event rng ~n:sc.n
          ~can_join:(fun v -> not (Maintenance.is_present m v))
          ~can_leave:(Maintenance.is_present m)
      in
      let prefix = ev :: prefix in
      let before = link_snapshot m sc.n in
      let got, expected, mover =
        match ev with
        | Join v -> (Maintenance.join m v, Reference_maintenance.join r v, v)
        | Leave v -> (Maintenance.leave m v, Reference_maintenance.leave r v, v)
      in
      let after = link_snapshot m sc.n in
      let changed = ref 0 in
      Array.iteri (fun v a -> if v <> mover && a <> before.(v) then incr changed) after;
      let live = Maintenance.present m in
      let static = Crescendo.links_of_node (Rings.build_partial pop ~present:live) in
      let wrong = List.find_opt (fun v -> after.(v) <> static v) (Array.to_list live) in
      let fail fmt =
        Printf.ksprintf
          (fun s ->
            err "after event %d of [%s]: %s" (i + 1)
              (String.concat "; " (List.rev_map show_event prefix))
              s)
          fmt
      in
      match (wrong, unsorted_row pop m) with
      | Some v, _ ->
          fail "node %d: links [%s], static [%s]" v (show_links after.(v)) (show_links (static v))
      | None, Some (v, row) -> fail "node %d: row [%s] is not clockwise" v (show_links row)
      | None, None ->
          if got.notify_messages <> !changed then
            fail "notify_messages %d, %d nodes changed" got.notify_messages !changed
          else if got <> expected then
            fail "stats %s, reference %s" (show_stats got) (show_stats expected)
          else step (i + 1) prefix
    end
  in
  step 0 []

(* The crash-window contract: between a crash and [repair], joins and
   leaves keep every node that holds no stale link exactly equal to the
   static construction, and [repair] -- which recomputes the stale
   nodes -- restores it everywhere. Every row, stale ones included,
   strictly ascends clockwise after every crash, join, leave and
   repair. A crashed node that a live node
   still links to may not rejoin before the repair. *)
let prop_crash_window_contract sc =
  let rng = Rng.create (sc.case_seed + 71) in
  let pop = if Rng.bool rng then sc.pop else corner_population rng sc.pop in
  let initial = gen_membership rng sc.n in
  let m = Maintenance.create pop ~present:initial in
  let crashed = Array.make sc.n false in
  let crash v () =
    Maintenance.crash m v;
    crashed.(v) <- true;
    rows_sorted (Printf.sprintf "after crashing %d" v) pop m
  in
  let crashes = List.filter (fun _ -> Rng.int_below rng 6 = 0) (Array.to_list initial) in
  let exact v = Maintenance.links m v = Crescendo.links_of_node (Maintenance.rings m) v in
  let live () = List.filter (Maintenance.is_present m) (List.init sc.n Fun.id) in
  let rec step i =
    if i = 20 then Ok ()
    else
      let ev =
        gen_event rng ~n:sc.n
          ~can_join:(fun v -> not (crashed.(v) || Maintenance.is_present m v))
          ~can_leave:(Maintenance.is_present m)
      in
      (match ev with
      | Join v -> ignore (Maintenance.join m v)
      | Leave v -> ignore (Maintenance.leave m v));
      let stale = Maintenance.stale_nodes m in
      let what = Printf.sprintf "after event %d (%s)" (i + 1) (show_event ev) in
      match List.find_opt (fun v -> not (Array.mem v stale || exact v)) (live ()) with
      | Some v ->
          err "%s: node %d holds no stale link, links [%s], static [%s]" what v
            (show_links (Maintenance.links m v))
            (show_links (Crescendo.links_of_node (Maintenance.rings m) v))
      | None -> Result.bind (rows_sorted what pop m) (fun () -> step (i + 1))
  in
  let rejoin_refused () =
    let held v =
      Array.exists (fun u -> Array.mem v (Maintenance.links m u)) (Maintenance.present m)
    in
    match List.find_opt (fun v -> crashed.(v) && held v) (List.init sc.n Fun.id) with
    | None -> Ok ()
    | Some v -> (
        match Maintenance.join m v with
        | _ -> err "crashed node %d rejoined before repair" v
        | exception Invalid_argument _ -> Ok ())
  in
  first_error
    (List.map crash crashes
    @ [
        rejoin_refused;
        (fun () -> step 0);
        (fun () ->
          ignore (Maintenance.repair m);
          match List.find_opt (fun v -> not (exact v)) (live ()) with
          | Some v -> err "node %d wrong after repair" v
          | None -> rows_sorted "after repair" pop m);
      ])

(* --- one clockwise step over every row ------------------------------ *)

(* Every node's step against the two-pass reference, from its row
   [links v], under [dead]: for random keys, member ids and their
   neighbours, and the ids at and beside each of its links. *)
let steps_match rng ~ids ~links ~dead =
  let n = Array.length ids in
  first_error
    (List.concat_map
       (fun at ->
         let beside v = [ Id.add ids.(v) (-1); ids.(v); Id.add ids.(v) 1 ] in
         let keys =
           step_keys rng ~id:(Array.get ids) ~n @ List.concat_map beside (Array.to_list (links at))
         in
         List.map (fun key () -> step_matches_reference ~ids ~links ~dead ~at ~key) keys)
       (List.init n Fun.id))

(* Rows of degree 0 to 64 over random other nodes, sorted by
   [Overlay.create]. *)
let random_rows rng ids =
  let n = Array.length ids in
  let adj =
    Array.init n (fun u ->
        let others = Array.of_list (List.filter (( <> ) u) (List.init n Fun.id)) in
        Rng.shuffle_in_place rng others;
        Array.sub others 0 (min (Array.length others) (Rng.int_below rng 65)))
  in
  Overlay.links (Overlay.create (flat_population ids) ~links:adj)

(* [steps_match] over each row set [rows rng pop] gives, on the case's
   population and on one with corner and table ids, under a random dead
   mask. *)
let steps_match_on_populations sc ~salt rows =
  let rng = Rng.create (sc.case_seed + salt) in
  first_error
    (List.map
       (fun pop () ->
         let ids = pop.Population.ids in
         let crashed = gen_crashes rng ~n:sc.n in
         first_error
           (List.map
              (fun links () -> steps_match rng ~ids ~links ~dead:(Array.get crashed))
              (rows rng pop)))
       [ sc.pop; corner_population rng sc.pop ])

(* A [Maintenance] state over [pop] after random crashes, joins and
   leaves. *)
let churned_maintenance rng sc pop =
  let m = Maintenance.create pop ~present:(gen_membership rng sc.n) in
  let gone = Array.make sc.n false in
  Array.iter
    (fun v ->
      if Rng.int_below rng 6 = 0 then begin
        Maintenance.crash m v;
        gone.(v) <- true
      end)
    (Maintenance.present m);
  for _ = 1 to Rng.int_below rng 20 do
    match
      gen_event rng ~n:sc.n
        ~can_join:(fun v -> not (gone.(v) || Maintenance.is_present m v))
        ~can_leave:(Maintenance.is_present m)
    with
    | Join v -> ignore (Maintenance.join m v)
    | Leave v -> ignore (Maintenance.leave m v)
    | exception Invalid_argument _ -> () (* every node crashed: no event can happen *)
  done;
  m

(* The sorted step decides as the two-pass reference on every row the
   library routes over, one property per row source: frozen Chord and
   Crescendo rows; [Maintenance] rows after random crashes, joins and
   leaves; [Live_view.chord] rows over such a membership; and random
   sorted rows under a dead mask from none to all. *)
let prop_sorted_step_matches_reference_overlays sc =
  steps_match_on_populations sc ~salt:61 (fun _ pop ->
      [ Overlay.links (Chord.build pop); Overlay.links (Crescendo.build (Rings.build pop)) ])

let prop_sorted_step_matches_reference_maintenance sc =
  steps_match_on_populations sc ~salt:63 (fun rng pop ->
      let m = churned_maintenance rng sc pop in
      [ (fun v -> if Maintenance.is_present m v then Maintenance.links m v else [||]) ])

let prop_sorted_step_matches_reference_live_view sc =
  steps_match_on_populations sc ~salt:65 (fun rng pop ->
      [ Live_view.links (Live_view.chord (churned_maintenance rng sc pop)) ])

let prop_sorted_step_matches_reference_random_rows sc =
  let rng = Rng.create (sc.case_seed + 67) in
  let ids = table_ids rng sc.n in
  let density = Rng.int_below rng 5 in
  let dead = Array.init sc.n (fun _ -> Rng.int_below rng 4 < density) in
  let rows = random_rows rng ids in
  steps_match rng ~ids ~links:rows ~dead:(Array.get dead)

(* --- whole-ring builds ------------------------------------------------ *)

(* The whole-ring builds sweep each ring once with forward cursors; the
   per-node rules search. They must agree on every node, on ragged trees,
   and on ids packed just after 0 and just before [Id.space - 1], where
   every cursor wraps (with a few random ids, so rings are not all one
   cluster). *)
let wrap_population rng pop =
  let n = Population.size pop in
  let spread = 1 + Rng.int_below rng (4 * n) in
  let seen = Hashtbl.create n in
  let ids = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let id =
      match Rng.int_below rng 8 with
      | 0 -> Id.random rng
      | r when r land 1 = 0 -> Rng.int_below rng spread
      | _ -> Id.space - 1 - Rng.int_below rng spread
    in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      ids.(!filled) <- id;
      incr filled
    end
  done;
  { pop with Population.ids }

let sweep_populations rng sc = [ sc.pop; corner_population rng sc.pop; wrap_population rng sc.pop ]

let every_node n f = first_error (List.init n (fun v () -> f v))

let prop_chord_build_matches_per_node sc =
  let rng = Rng.create (sc.case_seed + 51) in
  first_error
    (List.map
       (fun pop () ->
         let ids = pop.Population.ids in
         let global = Ring.of_members ~ids ~members:(Array.init sc.n Fun.id) in
         let overlay = Chord.build pop in
         every_node sc.n (fun v ->
             compare_links
               (Printf.sprintf "node %d (id %d)" v ids.(v))
               ~expected:(Chord.links_of_id global ids.(v) ~self:v)
               ~got:(Overlay.links overlay v)))
       (sweep_populations rng sc))

(* [Crescendo.build] rows are [links_of_node] itself, on full rings and
   on partial ones (where absent nodes get no links), and so are the
   rows [Maintenance.create] starts from. *)
let prop_crescendo_build_matches_per_node sc =
  let rng = Rng.create (sc.case_seed + 53) in
  first_error
    (List.map
       (fun pop () ->
         let rings = Rings.build pop in
         let sub = random_subset rng sc.n in
         let partial = Rings.build_partial pop ~present:sub in
         let full_build = Crescendo.build rings and partial_build = Crescendo.build partial in
         let maintained = Maintenance.create pop ~present:sub in
         let in_sub = Array.make sc.n false in
         Array.iter (fun v -> in_sub.(v) <- true) sub;
         every_node sc.n (fun v ->
             let expected_partial = if in_sub.(v) then Crescendo.links_of_node partial v else [||] in
             first_error
               [
                 (fun () ->
                   compare_links (Printf.sprintf "build, node %d" v)
                     ~expected:(Crescendo.links_of_node rings v)
                     ~got:(Overlay.links full_build v));
                 (fun () ->
                   compare_links (Printf.sprintf "partial build, node %d" v)
                     ~expected:expected_partial ~got:(Overlay.links partial_build v));
                 (fun () ->
                   if not in_sub.(v) then Ok ()
                   else
                     compare_links (Printf.sprintf "Maintenance.create, node %d" v)
                       ~expected:expected_partial ~got:(Maintenance.links maintained v));
               ]))
       (sweep_populations rng sc))

(* Every dealt ring equals [Ring.of_members] of its domain's present
   members, for all nodes and for a random subset (maybe empty). *)
let prop_rings_match_per_domain sc =
  let rng = Rng.create (sc.case_seed + 55) in
  let on_rings pop rings present () =
    let ids = pop.Population.ids in
    first_error
      (List.init (Domain_tree.num_domains sc.tree) (fun d () ->
           let members =
             Array.of_list
               (List.filter
                  (fun v ->
                    Domain_tree.is_ancestor sc.tree ~anc:d ~desc:pop.Population.leaf_of_node.(v))
                  (Array.to_list present))
           in
           let expected = Ring.of_members ~ids ~members and got = Rings.ring rings d in
           if Ring.members expected = Ring.members got then Ok ()
           else
             err "domain %d: expected [%s], got [%s]" d
               (show_links (Ring.members expected))
               (show_links (Ring.members got))))
  in
  first_error
    (List.concat_map
       (fun pop ->
         let sub = random_subset rng sc.n in
         [
           on_rings pop (Rings.build pop) (Array.init sc.n Fun.id);
           on_rings pop (Rings.build_partial pop ~present:sub) sub;
         ])
       (sweep_populations rng sc))

(* A sweep only moves forward: a rank behind the last one swept, or past
   the ring, is refused rather than answered from stale cursors. *)
let prop_sweep_rejects_backward_ranks () =
  let ids = [| 10; 20; 30; 40 |] in
  let ring = Ring.of_members ~ids ~members:[| 0; 1; 2; 3 |] in
  let s = Chord.sweep ring and buf = Array.make Id.bits 0 in
  ignore (Chord.sweep_fingers s ~rank:2 ~below:Id.space buf 0);
  ignore (Chord.sweep_fingers s ~rank:2 ~below:Id.space buf 0);
  List.iter
    (fun rank ->
      match Chord.sweep_fingers s ~rank ~below:Id.space buf 0 with
      | _ -> Alcotest.failf "rank %d accepted after rank 2" rank
      | exception Invalid_argument _ -> ())
    [ 1; 4 ]

(* Two nodes with one id: every whole-ring build refuses the population. *)
let prop_duplicate_ids_raise sc =
  if sc.n < 2 then Ok ()
  else begin
    let rng = Rng.create (sc.case_seed + 57) in
    let i = Rng.int_below rng sc.n in
    let j = (i + 1 + Rng.int_below rng (sc.n - 1)) mod sc.n in
    let ids = Array.copy sc.pop.Population.ids in
    ids.(j) <- ids.(i);
    let pop = { sc.pop with Population.ids } in
    let raises what f =
      match f () with
      | _ -> err "%s accepted nodes %d and %d with one id" what i j
      | exception Invalid_argument _ -> Ok ()
    in
    first_error
      [
        (fun () -> raises "Rings.build" (fun () -> Rings.build pop));
        (fun () -> raises "Rings.build_partial" (fun () -> Rings.build_partial pop ~present:[| j; i |]));
        (fun () -> raises "Chord.build" (fun () -> Chord.build pop));
      ]
  end

(* --- one Canon merge per link family ---------------------------------- *)

(* The per-node constructions that [Canonical] replaced, kept as the
   reference: each flat DHT as its own loop over the global ring, each
   Canonical one as its own walk up the domain chain, deduplicated
   through [Link_set]. The reference rows go through [Overlay.create],
   which orders them clockwise, so a difference in link set or in random
   stream shows; one in insertion order does not. *)

let reference_long_links rng ~ids ring id ~cap acc =
  let n = Ring.size ring in
  let wanted = if n <= 1 then 0 else Id.log2_floor n in
  if n >= 2 && wanted > 0 then begin
    let added = ref 0 and attempts = ref 0 in
    while !added < wanted && !attempts < 16 * wanted do
      incr attempts;
      let d = Symphony.harmonic_distance rng ~n in
      let target = Ring.first_at_or_after ring (Id.add id d) in
      let dist = Id.distance id ids.(target) in
      if dist > 0 && dist < cap && not (Link_set.mem acc target) then begin
        Link_set.add acc target;
        incr added
      end
    done
  end

let reference_bucket_links rng ring id ~cap acc =
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    let lo = 1 lsl !k in
    let len = min lo (cap - lo) in
    let start = Id.add id lo in
    let count = Ring.arc_count ring ~start ~len in
    if count > 0 then
      Link_set.add acc
        (Ring.nth_from ring (Ring.rank_at_or_after ring start) (Rng.int_below rng count));
    incr k
  done

(* Symphony and ND-Chord: the successor, then the rule. *)
let reference_flat_ring rule pop =
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let global = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
  Array.init n (fun node ->
      let id = ids.(node) in
      let acc = Link_set.create ~self:node in
      if n >= 2 then begin
        Link_set.add acc (Ring.successor_of_id global id);
        rule global id ~cap:Id.space acc
      end;
      Link_set.to_array acc)

(* Cacophony and ND-Crescendo: the leaf ring as the flat DHT; above it,
   the rule below the lower-level successor distance, then the level's
   successor. *)
let reference_level_walk rule rings =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  Array.init (Population.size pop) (fun node ->
      let id = ids.(node) in
      let acc = Link_set.create ~self:node in
      let chain = Rings.chain rings node in
      let leaf_ring = Rings.ring rings chain.(0) in
      if Ring.size leaf_ring >= 2 then begin
        Link_set.add acc (Ring.successor_of_id leaf_ring id);
        rule leaf_ring id ~cap:Id.space acc
      end;
      let d_own = ref (Ring.successor_distance leaf_ring id) in
      for level = 1 to Array.length chain - 1 do
        let ring = Rings.ring rings chain.(level) in
        if Ring.size ring >= 2 then begin
          rule ring id ~cap:!d_own acc;
          Link_set.add acc (Ring.successor_of_id ring id)
        end;
        d_own := min !d_own (Ring.successor_distance ring id)
      done;
      Link_set.to_array acc)

let reference_count_range ring lo hi = Ring.rank_at_or_after ring hi - Ring.rank_at_or_after ring lo

let reference_random_in_range rng ring base len =
  let count = reference_count_range ring base (base + len) in
  if count = 0 then None
  else Some (Ring.node_at ring (Ring.rank_at_or_after ring base + Rng.int_below rng count))

let reference_closest_in_bucket ring id k =
  let lo = ref ((id lxor (1 lsl k)) land lnot ((1 lsl k) - 1)) and len = ref (1 lsl k) in
  if reference_count_range ring !lo (!lo + !len) = 0 then None
  else begin
    while !len > 1 do
      let half = !len / 2 in
      let id_bit_set = id land half <> 0 in
      let preferred = if id_bit_set then !lo + half else !lo in
      if reference_count_range ring preferred (preferred + half) > 0 then lo := preferred
      else if not id_bit_set then lo := !lo + half;
      len := half
    done;
    Some (Ring.node_at ring (Ring.rank_at_or_after ring !lo))
  end

(* Kademlia and Kandy ([Some rng]), CAN and Can-Can ([None]): each
   bucket filled from the first ring of [chain] with a member in it. *)
let reference_xor_row rng chain id ~self =
  let acc = Link_set.create ~self in
  let filled = Array.make Id.bits false in
  Array.iter
    (fun ring ->
      for k = 0 to Id.bits - 1 do
        if not filled.(k) then
          let member =
            match rng with
            | None -> reference_closest_in_bucket ring id k
            | Some rng ->
                reference_random_in_range rng ring
                  ((id lxor (1 lsl k)) land lnot ((1 lsl k) - 1))
                  (1 lsl k)
          in
          match member with
          | None -> ()
          | Some target ->
              Link_set.add acc target;
              filled.(k) <- true
      done)
    chain;
  Link_set.to_array acc

(* Pastry and Canonical Pastry, b = 4: each cell (l, d), d not the
   node's own digit, filled from the first ring with a member in it. *)
let reference_pastry_row rng chain id ~self =
  let digit id l = (id lsr (Id.bits - ((l + 1) * 4))) land 15 in
  let acc = Link_set.create ~self in
  let filled = Array.make 128 false in
  Array.iter
    (fun ring ->
      for l = 0 to 7 do
        for d = 0 to 15 do
          let slot = (l lsl 4) lor d in
          if (not filled.(slot)) && d <> digit id l then begin
            let suffix_bits = Id.bits - ((l + 1) * 4) in
            let base = ((Id.prefix id (l * 4) lsl 4) lor d) lsl suffix_bits in
            match reference_random_in_range rng ring base (1 lsl suffix_bits) with
            | None -> ()
            | Some target ->
                Link_set.add acc target;
                filled.(slot) <- true
          end
        done
      done)
    chain;
  Link_set.to_array acc

(* The slot families: flat over the global ring alone, Canonical over
   each node's domain chain. *)
let reference_flat_slots row pop =
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let global = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
  Array.init n (fun node -> row [| global |] ids.(node) ~self:node)

let reference_chain_slots row rings =
  let pop = Rings.population rings in
  Array.init (Population.size pop) (fun node ->
      row
        (Array.map (Rings.ring rings) (Rings.chain rings node))
        pop.Population.ids.(node) ~self:node)

(* Crescendo (Prox.): Chord fingers below the root, each capped by the
   lower-level successor distance; at the root, the successor and one
   lowest-latency pick among the finger and every [count / 32]-th
   member of each admissible arc (all members of an arc under 64), or
   the plain finger when the arc holds at most one member. *)
let reference_crescendo_prox rings ~node_latency =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  let root_ring = Rings.ring rings (Domain_tree.root pop.Population.tree) in
  Array.init (Population.size pop) (fun node ->
      let id = ids.(node) in
      let acc = Link_set.create ~self:node in
      let chain = Rings.chain rings node in
      let levels = Array.length chain in
      let d_own = ref Id.space in
      if levels > 1 then begin
        let leaf_ring = Rings.ring rings chain.(0) in
        Array.iter (Link_set.add acc) (Chord.links_of_id leaf_ring id ~self:node);
        d_own := Ring.successor_distance leaf_ring id
      end;
      for level = 1 to levels - 2 do
        let ring = Rings.ring rings chain.(level) in
        let k = ref 0 in
        while !k < Id.bits && 1 lsl !k < !d_own do
          (match Ring.finger ring id (1 lsl !k) with
          | Some target when Id.distance id ids.(target) < !d_own -> Link_set.add acc target
          | _ -> ());
          incr k
        done;
        d_own := min !d_own (Ring.successor_distance ring id)
      done;
      if Ring.size root_ring >= 2 then begin
        let succ = Ring.successor_of_id root_ring id in
        if Id.distance id ids.(succ) <= !d_own then Link_set.add acc succ
      end;
      let k = ref 0 in
      while !k < Id.bits && 1 lsl !k < !d_own do
        (match Ring.finger root_ring id (1 lsl !k) with
        | Some target when Id.distance id ids.(target) < !d_own ->
            let hi = min (1 lsl (!k + 1)) !d_own in
            let start = Id.add id (1 lsl !k) in
            let count = Ring.arc_count root_ring ~start ~len:(hi - (1 lsl !k)) in
            if count <= 1 then Link_set.add acc target
            else begin
              let best = ref target and best_lat = ref (node_latency node target) in
              let stride = max 1 (count / 32) in
              let first = Ring.rank_at_or_after root_ring start in
              let i = ref 0 in
              while !i < count do
                let peer = Ring.nth_from root_ring first !i in
                if peer <> node && node_latency node peer < !best_lat then begin
                  best := peer;
                  best_lat := node_latency node peer
                end;
                i := !i + stride
              done;
              Link_set.add acc !best
            end
        | _ -> ());
        incr k
      done;
      Link_set.to_array acc)

(* Hybrid: Crescendo merges above the leaf, each level's Chord fingers
   capped by the smallest successor distance below it (the leaf's
   first), then the LAN clique from the node's successor around its
   leaf ring. *)
let reference_hybrid rings =
  Array.init (Population.size (Rings.population rings)) (fun node ->
      let id = (Rings.population rings).Population.ids.(node) in
      let chain = Rings.chain rings node in
      let leaf_ring = Rings.ring rings chain.(0) in
      let buf = Array.make Id.bits 0 in
      let levels = ref [] and d_own = ref (Ring.successor_distance leaf_ring id) in
      for level = 1 to Array.length chain - 1 do
        let ring = Rings.ring rings chain.(level) in
        levels :=
          Array.sub buf 0 (Chord.add_fingers ring id ~self:node ~below:!d_own buf 0) :: !levels;
        d_own := min !d_own (Ring.successor_distance ring id)
      done;
      let self = Ring.rank_at_or_after leaf_ring id in
      let clique =
        Array.init (Ring.size leaf_ring - 1) (fun i -> Ring.nth_from leaf_ring self (i + 1))
      in
      Array.concat (!levels @ [ clique ]))

(* Integer latencies in 1..4 ms: most candidate arcs hold ties. *)
let tied_latency u v = if u = v then 0.0 else Float.of_int (1 + (((u * 13) + (v * 7)) mod 4))

(* Every builder of the ring-distance and slot families equals its
   reference, with one random seed per builder shared by both sides: on
   the scenario's ragged hierarchy (1 to 4 levels) and on one-level
   hierarchies, over random, corner and wrapping ids. *)
let prop_canon_merge_matches_parent sc =
  let rng = Rng.create (sc.case_seed + 59) in
  let on_pop pop () =
    let ids = pop.Population.ids and rings = Rings.build pop in
    let same what ~got ~expected () =
      let seed = Rng.int_below rng 1_000_000 in
      let got = got (Rng.create seed)
      and expected = Overlay.create pop ~links:(expected (Rng.create seed)) in
      every_node (Population.size pop) (fun v ->
          compare_links (Printf.sprintf "%s, node %d" what v)
            ~expected:(Overlay.links expected v) ~got:(Overlay.links got v))
    in
    let long_links r = reference_long_links r ~ids in
    first_error
      [
        same "Symphony" ~got:(fun r -> Symphony.build r pop) ~expected:(fun r ->
            reference_flat_ring (long_links r) pop);
        same "Cacophony" ~got:(fun r -> Cacophony.build r rings) ~expected:(fun r ->
            reference_level_walk (long_links r) rings);
        same "ND-Chord" ~got:(fun r -> Nd_chord.build r pop) ~expected:(fun r ->
            reference_flat_ring (reference_bucket_links r) pop);
        same "ND-Crescendo" ~got:(fun r -> Nd_crescendo.build r rings) ~expected:(fun r ->
            reference_level_walk (reference_bucket_links r) rings);
        same "Kademlia" ~got:(fun r -> Kademlia.build r pop) ~expected:(fun r ->
            reference_flat_slots (reference_xor_row (Some r)) pop);
        same "Kandy" ~got:(fun r -> Kandy.build r rings) ~expected:(fun r ->
            reference_chain_slots (reference_xor_row (Some r)) rings);
        same "CAN" ~got:(fun _ -> Can.build pop) ~expected:(fun _ ->
            reference_flat_slots (reference_xor_row None) pop);
        same "Can-Can" ~got:(fun _ -> Can_can.build rings) ~expected:(fun _ ->
            reference_chain_slots (reference_xor_row None) rings);
        same "Pastry" ~got:(fun r -> Pastry.build r pop) ~expected:(fun r ->
            reference_flat_slots (reference_pastry_row r) pop);
        same "Canonical Pastry" ~got:(fun r -> Pastry.build_canonical r rings) ~expected:(fun r ->
            reference_chain_slots (reference_pastry_row r) rings);
        same "Crescendo (Prox.)"
          ~got:(fun _ ->
            Proximity.overlay (Proximity.build_crescendo rings ~node_latency:tied_latency))
          ~expected:(fun _ -> reference_crescendo_prox rings ~node_latency:tied_latency);
        same "Hybrid" ~got:(fun _ -> Hybrid.build rings) ~expected:(fun _ -> reference_hybrid rings);
      ]
  in
  let one_level pop =
    { pop with
      Population.tree = Domain_tree.of_spec Domain_tree.Leaf;
      leaf_of_node = Array.make (Population.size pop) 0 }
  in
  first_error
    (List.concat_map (fun pop -> [ on_pop pop; on_pop (one_level pop) ]) (sweep_populations rng sc))

(* --- the replicated store against its per-node-table reference ---- *)

(* The store as it was before a key's directory entry held its copies:
   every node keeps a table of its own, and the directory keeps each
   key's sorted list of copy holders in step with those tables. *)
module Reference_store = struct
  module Metrics = Canon_telemetry.Metrics

  let puts_counter = Metrics.counter "replication.puts"
  let acks_counter = Metrics.counter "replication.write_acks"
  let reads_counter = Metrics.counter "replication.reads"
  let read_failures_counter = Metrics.counter "replication.read_failures"
  let stale_reads_counter = Metrics.counter "replication.stale_reads"
  let read_repairs_counter = Metrics.counter "replication.read_repairs"
  let gc_counter = Metrics.counter "replication.gc_copies"

  type entry = { value : string; version : int }

  type meta = {
    storage_domain : int;
    mutable version : int;
    mutable copies : int list;
  }

  type t = {
    rings : Rings.t;
    pop : Population.t;
    k : int;
    spread : Replica_set.spread;
    net : Net.t option;
    present : bool array;
    tables : (Id.t, entry) Hashtbl.t array;
    directory : (Id.t, meta) Hashtbl.t;
  }

  let create ?net ~k ~spread rings =
    let pop = Rings.population rings in
    let n = Population.size pop in
    let present =
      Array.init n (fun v ->
          Ring.contains
            (Rings.ring rings pop.Population.leaf_of_node.(v))
            pop.Population.ids.(v))
    in
    {
      rings;
      pop;
      k;
      spread;
      net;
      present;
      tables = Array.init n (fun _ -> Hashtbl.create 16);
      directory = Hashtbl.create 64;
    }

  let live t v =
    t.present.(v)
    &&
    match t.net with
    | None -> true
    | Some net -> not (Fault_plan.is_crashed (Net.plan net) v)

  let reachable t ~src target =
    live t target
    && (target = src
       ||
       match t.net with
       | None -> true
       | Some net ->
           let r = Net.lookup net ~src ~key:t.pop.Population.ids.(target) in
           Async_route.delivered r && Route.destination r.Async_route.route = target)

  let holders_of t meta ~key =
    Replica_set.compute ~alive:(live t) t.rings ~spread:t.spread ~k:t.k
      ~domain:meta.storage_domain ~key

  let holders t ~key =
    match Hashtbl.find_opt t.directory key with
    | None -> [||]
    | Some meta -> holders_of t meta ~key

  let copies t ~key =
    match Hashtbl.find_opt t.directory key with
    | None -> [||]
    | Some meta -> Array.of_list meta.copies

  let stored t ~node ~key =
    match Hashtbl.find_opt t.tables.(node) key with
    | None -> None
    | Some e -> Some (e.value, e.version)

  let version t ~key =
    match Hashtbl.find_opt t.directory key with None -> 0 | Some m -> m.version

  let add_copy meta node =
    if not (List.mem node meta.copies) then
      meta.copies <- List.sort compare (node :: meta.copies)

  let drop_copy meta node = meta.copies <- List.filter (( <> ) node) meta.copies

  let put t ~writer ~key ~value ~storage_domain =
    if not (live t writer) then invalid_arg "Replicated_store.put: writer not live";
    if
      not
        (Domain_tree.is_ancestor t.pop.Population.tree ~anc:storage_domain
           ~desc:t.pop.Population.leaf_of_node.(writer))
    then invalid_arg "Replicated_store.put: storage domain does not contain the writer";
    let meta =
      match Hashtbl.find_opt t.directory key with
      | Some m ->
          if m.storage_domain <> storage_domain then
            invalid_arg "Replicated_store.put: key already bound to another storage domain";
          m
      | None ->
          let m = { storage_domain; version = 0; copies = [] } in
          Hashtbl.replace t.directory key m;
          m
    in
    Metrics.incr puts_counter;
    let next_version = meta.version + 1 in
    let acks = ref 0 in
    Array.iter
      (fun h ->
        if reachable t ~src:writer h then begin
          Hashtbl.replace t.tables.(h) key { value; version = next_version };
          add_copy meta h;
          incr acks
        end)
      (holders_of t meta ~key);
    if !acks > 0 then meta.version <- next_version;
    Metrics.add acks_counter !acks;
    !acks

  let get t ~querier ~key =
    if not (live t querier) then invalid_arg "Replicated_store.get: querier not live";
    Metrics.incr reads_counter;
    match Hashtbl.find_opt t.directory key with
    | None ->
        Metrics.incr read_failures_counter;
        None
    | Some meta -> (
        let hs = holders_of t meta ~key in
        let extras = List.filter (fun v -> live t v && not (Array.mem v hs)) meta.copies in
        let probe v = (v, reachable t ~src:querier v, Hashtbl.find_opt t.tables.(v) key) in
        let probed_holders = Array.map probe hs in
        let probed_extras = List.map probe extras in
        let best = ref (None : entry option) in
        let consider ((_, ok, e) : int * bool * entry option) =
          match (ok, e) with
          | true, Some e -> (
              match !best with
              | Some b when b.version >= e.version -> ()
              | _ -> best := Some e)
          | _ -> ()
        in
        Array.iter consider probed_holders;
        List.iter consider probed_extras;
        match !best with
        | None ->
            Metrics.incr read_failures_counter;
            None
        | Some fresh ->
            let stale = ref 0 in
            Array.iter
              (fun ((h, ok, e) : int * bool * entry option) ->
                if ok then
                  let behind =
                    match e with None -> true | Some e -> e.version < fresh.version
                  in
                  if behind then begin
                    incr stale;
                    Hashtbl.replace t.tables.(h) key fresh;
                    add_copy meta h;
                    Metrics.incr read_repairs_counter
                  end)
              probed_holders;
            if !stale > 0 then Metrics.incr stale_reads_counter;
            let rehomed =
              Array.exists (fun ((_, ok, _) : int * bool * entry option) -> ok) probed_holders
            in
            if rehomed then
              List.iter
                (fun (v, ok, _) ->
                  if ok then begin
                    Hashtbl.remove t.tables.(v) key;
                    drop_copy meta v;
                    Metrics.incr gc_counter
                  end)
                probed_extras;
            Some fresh.value)
end

(* The scenario's population on a 7-bit id space: distinct ids among
   the 128 multiples of 2^25 (so n <= 128), with keys drawn from the same
   multiples, so a key often equals a node's id, sits next to one, or
   wraps past the largest. *)
let seven_bit_id i = i lsl 25

let seven_bit_population rng pop =
  let slots = Array.init 128 Fun.id in
  Rng.shuffle_in_place rng slots;
  { pop with Population.ids = Array.init (Population.size pop) (fun v -> seven_bit_id slots.(v)) }

let replication_counts () =
  List.map
    (fun name -> Canon_telemetry.Metrics.(value (counter ("replication." ^ name))))
    [ "puts"; "write_acks"; "reads"; "read_failures"; "stale_reads"; "read_repairs"; "gc_copies" ]

(* Runs [f] and returns its result, or the message it raised
   [Invalid_argument] with, and the [replication.*] increments it made. *)
let outcome_and_counters f =
  let before = replication_counts () in
  let result = match f () with r -> Ok r | exception Invalid_argument msg -> Error msg in
  (result, List.map2 ( - ) (replication_counts ()) before)

let show_result show = function Ok r -> show r | Error msg -> "raised " ^ msg

(* Without retries one lost message cuts a replica off, so reads that
   reach an ex-holder's copy but no current holder come up often. *)
let no_retry = { fast_policy with Rpc.max_retries = 0 }

(* The store equals the per-node-table reference under random put, get,
   crash and revive sequences: after every step the step's result and
   [replication.*] increments, and every key's holders, copies, version
   and per-node copy agree. Direct mode (no net) and net mode, where
   each store gets its own net built from one seed over one shared plan
   with loss, so both see the same lookups iff they probe the same
   replicas in the same order. Ids and keys live on the 7-bit id space;
   a random tenth of the nodes is absent from the rings. *)
let prop_store_matches_reference sc =
  let rng = Rng.create (sc.case_seed + 71) in
  let pop = seven_bit_population rng sc.pop in
  let present =
    Array.of_list (List.filter (fun _ -> Rng.int_below rng 10 > 0) (List.init sc.n Fun.id))
  in
  let rings = Rings.build_partial pop ~present in
  let k = 1 + Rng.int_below rng 3 in
  let spread = if Rng.bool rng then Replica_set.Flat else Replica_set.Sibling in
  let keys = Array.init (1 + Rng.int_below rng 3) (fun _ -> seven_bit_id (Rng.int_below rng 128)) in
  (* Each key's storage domain: an ancestor of a random node's leaf; a
     key may be drawn twice, and then its two domains may differ. *)
  let domains = Array.map (fun _ -> snd (gen_domain rng sc)) keys in
  let on_mode ~net_mode () =
    let plan =
      Fault_plan.create ~loss:(if net_mode then [| 0.0; 0.1; 0.3; 0.5 |].(Rng.int_below rng 4) else 0.0)
        ~n:sc.n ()
    in
    let net_seed = Rng.int_below rng 1_000_000 and overlay = Crescendo.build rings in
    let net () =
      if net_mode then
        Some
          (Net.create ~policy:no_retry ~plan ~rings ~rng:(Rng.create net_seed)
             ~node_latency:oracle overlay)
      else None
    in
    let reference = Reference_store.create ?net:(net ()) ~k ~spread rings in
    let store = Replicated_store.create ?net:(net ()) ~k ~spread rings in
    let same_state step =
      let key_state key =
        let copies = Replicated_store.copies store ~key
        and ref_copies = Reference_store.copies reference ~key in
        if Replicated_store.holders store ~key <> Reference_store.holders reference ~key then
          err "step %d, key %d: holders differ" step key
        else if copies <> ref_copies then
          err "step %d, key %d: copies [%s], reference [%s]" step key (show_links copies)
            (show_links ref_copies)
        else if Replicated_store.version store ~key <> Reference_store.version reference ~key
        then err "step %d, key %d: versions differ" step key
        else
          every_node sc.n (fun node ->
              if
                Replicated_store.stored store ~node ~key
                = Reference_store.stored reference ~node ~key
              then Ok ()
              else err "step %d, key %d: node %d's copy differs" step key node)
      in
      first_error (Array.to_list (Array.map (fun key () -> key_state key) keys))
    in
    let node () = Rng.int_below rng sc.n in
    let rec steps i =
      if i >= 200 then Ok ()
      else begin
        let j = Rng.int_below rng (Array.length keys) in
        let key = keys.(j) and domain = domains.(j) in
        let compare_step what show f g =
          let got, got_counts = outcome_and_counters f in
          let expected, ref_counts = outcome_and_counters g in
          if got <> expected then
            err "step %d, %s: %s, reference %s" i what (show_result show got)
              (show_result show expected)
          else if got_counts <> ref_counts then err "step %d, %s: replication.* counts differ" i what
          else Ok ()
        in
        let step =
          match Rng.int_below rng 10 with
          | 0 | 1 | 2 ->
              (* Writers mostly from the key's domain, so most puts pass
                 validation. *)
              let members = Ring.members (Rings.ring rings domain) in
              let writer =
                if Array.length members > 0 && Rng.int_below rng 4 > 0 then Rng.pick rng members
                else node ()
              in
              let value = Printf.sprintf "v%d" i in
              compare_step "put" string_of_int
                (fun () -> Replicated_store.put store ~writer ~key ~value ~storage_domain:domain)
                (fun () -> Reference_store.put reference ~writer ~key ~value ~storage_domain:domain)
          | 3 | 4 | 5 | 6 ->
              (* Half of the queriers hold a copy themselves: an
                 ex-holder reaches its own copy even when loss cuts it
                 off from every holder. *)
              let holding = Replicated_store.copies store ~key in
              let querier =
                if Array.length holding > 0 && Rng.bool rng then Rng.pick rng holding else node ()
              in
              compare_step "get" (Option.value ~default:"None")
                (fun () -> Replicated_store.get store ~querier ~key)
                (fun () -> Reference_store.get reference ~querier ~key)
          | 7 | 8 when net_mode ->
              (* Mostly a node holding a copy, so that holders move and
                 revived ex-holders leave extras behind. *)
              let holding = Replicated_store.copies store ~key in
              Fault_plan.crash plan
                (if Array.length holding > 0 && Rng.bool rng then Rng.pick rng holding
                 else node ());
              Ok ()
          | _ when net_mode ->
              let crashed = List.filter (Fault_plan.is_crashed plan) (List.init sc.n Fun.id) in
              if crashed <> [] then Fault_plan.revive plan (Rng.pick rng (Array.of_list crashed));
              Ok ()
          | _ -> Ok ()
        in
        match step with
        | Error _ as e -> e
        | Ok () -> ( match same_state i with Ok () -> steps (i + 1) | e -> e)
      end
    in
    steps 0
  in
  first_error [ on_mode ~net_mode:false; on_mode ~net_mode:true ]

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
        Alcotest.test_case "store = per-node reference" `Quick
          (check ~count:40 ~seed:9717 ~min_n:1 ~max_n:128 prop_store_matches_reference);
             Alcotest.test_case "placement = leaf_sequence reference, ragged trees" `Quick
          (check ~count:30 ~seed:9949 ~min_n:1 ~max_n:160 prop_placement_reference_ragged);
        Alcotest.test_case "placement = leaf_sequence reference, uniform trees" `Quick
          prop_placement_reference_uniform;
        Alcotest.test_case "placement = leaf_sequence reference, transit-stub" `Quick
          prop_placement_reference_transit_stub;
      ] );
    ( "prop.churn-async",
      [
        Alcotest.test_case "zero churn: merged queue = two-phase" `Quick
          (check ~count:20 ~seed:9808 ~min_n:8 ~max_n:120
             prop_merged_zero_churn_fidelity);
        Alcotest.test_case "live view = hook replay" `Quick
          prop_view_matches_hook_replay;
        Alcotest.test_case "departure draw = O(n) pool pick" `Quick
          (check ~count:40 ~seed:9909 ~min_n:1 ~max_n:120
             prop_departure_draw_matches_reference);
        Alcotest.test_case "Churn.run = O(n) reference run" `Quick
          (check ~count:25 ~seed:9919 ~min_n:1 ~max_n:120 prop_churn_run_matches_reference);
      ] );
    ( "prop.fingers",
      [
        Alcotest.test_case "chord links = reference finger rule" `Quick
          (check ~count:30 ~seed:9929 ~min_n:1 ~max_n:200 prop_chord_matches_reference);
        Alcotest.test_case "crescendo links = reference finger rule" `Quick
          (check ~count:30 ~seed:9939 ~min_n:1 ~max_n:200 prop_crescendo_matches_reference);
        Alcotest.test_case "finger rule id-space corners" `Quick prop_finger_corners;
        Alcotest.test_case "windowed finger scan = add_fingers filtered" `Quick
          (check ~count:30 ~seed:9941 ~min_n:1 ~max_n:200 prop_window_fingers);
        Alcotest.test_case "Ring insert/remove = sorted-list model" `Quick
          prop_ring_matches_model;
        Alcotest.test_case "Ring slots refuse node indices >= 2^31" `Quick prop_ring_slot_bounds;
      ] );
    ( "prop.maintenance",
      [
        Alcotest.test_case "patched links = static construction, stats = reference" `Quick
          (check ~count:80 ~seed:10009 ~min_n:1 ~max_n:160 prop_patched_maintenance_exact);
        Alcotest.test_case "crash window: non-stale nodes exact, repair heals" `Quick
          (check ~count:80 ~seed:10019 ~min_n:1 ~max_n:160 prop_crash_window_contract);
      ] );
    ( "prop.overlay",
      [
        Alcotest.test_case "create = clockwise sort, raise iff ids collide" `Quick
          prop_create_sorts_clockwise;
      ] );
    ( "prop.router",
      [
        Alcotest.test_case "sorted step = two-pass reference, overlays" `Quick
          (check ~count:30 ~seed:9959 ~min_n:1 ~max_n:160
             prop_sorted_step_matches_reference_overlays);
        Alcotest.test_case "sorted step = two-pass reference, maintenance" `Quick
          (check ~count:30 ~seed:9951 ~min_n:1 ~max_n:160
             prop_sorted_step_matches_reference_maintenance);
        Alcotest.test_case "sorted step = two-pass reference, live view" `Quick
          (check ~count:30 ~seed:9953 ~min_n:1 ~max_n:160
             prop_sorted_step_matches_reference_live_view);
        Alcotest.test_case "sorted step = two-pass reference, random rows" `Quick
          (check ~count:30 ~seed:9955 ~min_n:1 ~max_n:160
             prop_sorted_step_matches_reference_random_rows);
        Alcotest.test_case "one driver = historical engines, overlays" `Quick
          (check ~count:30 ~seed:9969 ~min_n:1 ~max_n:160
             prop_driver_matches_reference_overlays);
        Alcotest.test_case "one driver = historical group and name routing" `Quick
          (check ~count:30 ~seed:9979 ~min_n:1 ~max_n:160
             prop_driver_matches_reference_groups);
        Alcotest.test_case "one driver = historical numeric routing" `Quick
          (check ~count:30 ~seed:9983 ~min_n:1 ~max_n:128 prop_numeric_matches_reference);
      ] );
    ( "prop.sweep",
      [
        Alcotest.test_case "Chord.build rows = links_of_id per node" `Quick
          (check ~count:40 ~seed:10109 ~min_n:1 ~max_n:200 prop_chord_build_matches_per_node);
        Alcotest.test_case "Crescendo.build rows = links_of_node, clockwise" `Quick
          (check ~count:40 ~seed:10119 ~min_n:1 ~max_n:200 prop_crescendo_build_matches_per_node);
        Alcotest.test_case "Rings.build/build_partial = per-domain of_members" `Quick
          (check ~count:40 ~seed:10129 ~min_n:1 ~max_n:200 prop_rings_match_per_domain);
        Alcotest.test_case "duplicate ids raise Invalid_argument" `Quick
          (check ~count:40 ~seed:10139 ~min_n:1 ~max_n:200 prop_duplicate_ids_raise);
        Alcotest.test_case "sweep_fingers rejects ranks behind the sweep" `Quick
          prop_sweep_rejects_backward_ranks;
        Alcotest.test_case "Canon merge = parent construction" `Quick (fun () ->
            check ~count:20 ~seed:10149 ~min_n:1 ~max_n:2 prop_canon_merge_matches_parent ();
            check ~count:25 ~seed:10159 ~min_n:1 ~max_n:120 prop_canon_merge_matches_parent ());
        Alcotest.test_case "prefix CAN = trie construction" `Quick prop_prefix_can_matches_trie;
      ] );
    ( "prop.event-loop",
      [
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 9989 |])
          prop_event_queue_matches_model;
        Alcotest.test_case "Net = always-timer reference loop" `Quick
          (check ~count:20 ~seed:9999 ~min_n:8 ~max_n:120 prop_net_matches_reference);
      ] );
  ]
