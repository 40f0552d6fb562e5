(* Tests for canon_net: RPC policy, fault plans, and the message-level
   lookup simulator. The central assertions: with no
   faults the async lookup is byte-for-byte the synchronous greedy
   route (same path, wall clock = physical latency); with faults it
   degrades exactly through retry -> reroute -> leaf-set re-anchor. *)

open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_net
module Rng = Canon_rng.Rng
module Metrics = Canon_telemetry.Metrics
module Trace = Canon_telemetry.Trace
module Span = Canon_telemetry.Span

(* A deterministic synthetic latency oracle, 10..29 ms per edge. *)
let oracle u v = if u = v then 0.0 else 10.0 +. Float.of_int (((u * 13) + (v * 7)) mod 20)

let make_universe ?(fanout = 4) ?(levels = 3) ~n seed =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout ~levels) in
  Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n

(* --- Rpc ----------------------------------------------------------- *)

let test_rpc_validate () =
  Rpc.validate Rpc.default;
  let bad field p =
    Alcotest.check_raises field (Invalid_argument ("Rpc.validate: " ^ field)) (fun () ->
        Rpc.validate p)
  in
  bad "timeout_ms must be positive" { Rpc.default with Rpc.timeout_ms = 0.0 };
  bad "max_retries must be >= 0" { Rpc.default with Rpc.max_retries = -1 };
  bad "backoff_base_ms must be positive" { Rpc.default with Rpc.backoff_base_ms = -3.0 };
  bad "backoff_factor must be >= 1" { Rpc.default with Rpc.backoff_factor = 0.5 };
  bad "jitter must be in [0, 1)" { Rpc.default with Rpc.jitter = 1.0 };
  bad "deadline_ms must exceed timeout_ms"
    { Rpc.default with Rpc.deadline_ms = Rpc.default.Rpc.timeout_ms }

let test_rpc_backoff () =
  let p = { Rpc.default with Rpc.backoff_base_ms = 100.0; backoff_factor = 2.0; jitter = 0.0 } in
  let rng = Rng.create 1 in
  Alcotest.(check (float 1e-9)) "first" 100.0 (Rpc.backoff_ms p ~retry:1 rng);
  Alcotest.(check (float 1e-9)) "second doubles" 200.0 (Rpc.backoff_ms p ~retry:2 rng);
  Alcotest.(check (float 1e-9)) "fourth" 800.0 (Rpc.backoff_ms p ~retry:4 rng);
  let j = { p with Rpc.jitter = 0.25 } in
  for retry = 1 to 5 do
    let base = 100.0 *. (2.0 ** Float.of_int (retry - 1)) in
    let d = Rpc.backoff_ms j ~retry rng in
    if d < base *. 0.75 || d > base *. 1.25 then
      Alcotest.failf "jittered backoff %.1f outside [%.1f, %.1f]" d (base *. 0.75)
        (base *. 1.25)
  done;
  Alcotest.check_raises "retry 0" (Invalid_argument "Rpc.backoff_ms: retry must be >= 1")
    (fun () -> ignore (Rpc.backoff_ms p ~retry:0 rng))

(* --- Fault_plan ---------------------------------------------------- *)

let test_fault_plan_basics () =
  let p = Fault_plan.create ~loss:0.25 ~n:10 () in
  Alcotest.(check int) "size" 10 (Fault_plan.size p);
  Alcotest.(check int) "none crashed" 0 (Fault_plan.crashed_count p);
  Fault_plan.crash p 3;
  Fault_plan.crash p 3;
  Fault_plan.crash p 7;
  Alcotest.(check bool) "crashed" true (Fault_plan.is_crashed p 3);
  Alcotest.(check int) "idempotent" 2 (Fault_plan.crashed_count p);
  Fault_plan.revive p 3;
  Alcotest.(check bool) "revived" false (Fault_plan.is_crashed p 3);
  Alcotest.check_raises "bad loss" (Invalid_argument "Fault_plan: loss must be in [0, 1]")
    (fun () -> Fault_plan.set_loss p 1.5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Fault_plan.crash: node out of range") (fun () ->
      Fault_plan.crash p 10)

let test_fault_plan_draw_lost () =
  let p = Fault_plan.none ~n:4 in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    if Fault_plan.draw_lost p rng then Alcotest.fail "loss 0 must never lose"
  done;
  Fault_plan.set_loss p 1.0;
  for _ = 1 to 50 do
    if not (Fault_plan.draw_lost p rng) then Alcotest.fail "loss 1 must always lose"
  done

let test_fault_plan_crash_domain () =
  let pop = make_universe ~n:120 40 in
  let tree = pop.Population.tree in
  let domain = (Domain_tree.children tree (Domain_tree.root tree)).(1) in
  let p = Fault_plan.none ~n:120 in
  Fault_plan.crash_domain p pop ~domain;
  for v = 0 to 119 do
    let inside =
      Domain_tree.is_ancestor tree ~anc:domain ~desc:pop.Population.leaf_of_node.(v)
    in
    Alcotest.(check bool)
      (Printf.sprintf "node %d crash matches membership" v)
      inside (Fault_plan.is_crashed p v)
  done;
  Alcotest.(check bool) "someone crashed" true (Fault_plan.crashed_count p > 0);
  Alcotest.(check bool) "not everyone" true (Fault_plan.crashed_count p < 120)

let test_fault_plan_crash_random_protect () =
  let p = Fault_plan.none ~n:200 in
  Fault_plan.crash_random p (Rng.create 6) ~fraction:0.5 ~protect:(fun v -> v < 100) ();
  for v = 0 to 99 do
    if Fault_plan.is_crashed p v then Alcotest.fail "protected node crashed"
  done;
  let crashed = Fault_plan.crashed_count p in
  Alcotest.(check bool) "roughly half of the rest" true (crashed > 20 && crashed < 80)

(* --- Net: fault-free fidelity -------------------------------------- *)

let build_crescendo ~n seed =
  let pop = make_universe ~n seed in
  let rings = Rings.build pop in
  (pop, rings, Crescendo.build rings)

let test_net_fault_free_matches_sync () =
  let _, rings, overlay = build_crescendo ~n:200 50 in
  let net = Net.create ~rings ~rng:(Rng.create 51) ~node_latency:oracle overlay in
  let rng = Rng.create 52 in
  for _ = 1 to 100 do
    let src = Rng.int_below rng 200 and dst = Rng.int_below rng 200 in
    let key = Overlay.id overlay dst in
    let sync = Router.greedy_clockwise overlay ~src ~key in
    let r = Net.lookup net ~src ~key in
    Alcotest.(check bool) "delivered" true (r.Async_route.status = Async_route.Delivered);
    Alcotest.(check (array int)) "path matches sync engine" sync.Route.nodes
      r.Async_route.route.Route.nodes;
    Alcotest.(check (float 1e-6)) "wall clock = physical path latency"
      (Route.latency sync ~node_latency:oracle)
      r.Async_route.wall_ms;
    Alcotest.(check int) "one message per hop" (Route.hops sync) r.Async_route.messages;
    Alcotest.(check int) "no retries" 0 r.Async_route.retries;
    Alcotest.(check int) "no timeouts" 0 r.Async_route.timeouts;
    Alcotest.(check int) "no losses" 0 r.Async_route.losses;
    Alcotest.(check int) "no reanchors" 0 r.Async_route.reanchors
  done

let test_net_self_lookup () =
  let _, rings, overlay = build_crescendo ~n:64 53 in
  let net = Net.create ~rings ~rng:(Rng.create 54) ~node_latency:oracle overlay in
  (* Looking up your own id terminates immediately: zero messages. *)
  let r = Net.lookup net ~src:5 ~key:(Overlay.id overlay 5) in
  Alcotest.(check bool) "delivered" true (Async_route.delivered r);
  Alcotest.(check int) "zero hops" 0 (Route.hops r.Async_route.route);
  Alcotest.(check int) "zero messages" 0 r.Async_route.messages;
  Alcotest.(check (float 1e-9)) "zero wall" 0.0 r.Async_route.wall_ms

(* --- Net: crash recovery ------------------------------------------- *)

(* A (src, dst) pair whose fault-free route has at least [min_hops]
   hops, by deterministic scan. *)
let multi_hop_pair overlay ~n ~min_hops =
  let found = ref None in
  (try
     for src = 0 to n - 1 do
       for dst = 0 to n - 1 do
         let route = Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst) in
         if Route.hops route >= min_hops && Route.destination route = dst then begin
           found := Some (src, dst, route);
           raise Exit
         end
       done
     done
   with Exit -> ());
  match !found with Some x -> x | None -> Alcotest.fail "no multi-hop pair found"

let fast_policy =
  {
    Rpc.timeout_ms = 100.0;
    max_retries = 1;
    backoff_base_ms = 10.0;
    backoff_factor = 2.0;
    jitter = 0.0;
    deadline_ms = 60_000.0;
  }

(* The FIFO tie rule (net.ml pushes Deliver before Timeout): a hop
   whose latency is *exactly* timeout_ms is Delivered, not Timed out.
   Every edge of this oracle costs precisely the timeout, so any tie
   broken the other way would surface as timeouts (and, with
   max_retries = 0, as a reroute off the fault-free path). *)
let test_net_latency_exactly_timeout_delivered () =
  let _, rings, overlay = build_crescendo ~n:64 58 in
  let timeout_ms = 100.0 in
  let policy =
    { Rpc.default with Rpc.timeout_ms; max_retries = 0; deadline_ms = 1_000_000.0 }
  in
  let at_timeout u v = if u = v then 0.0 else timeout_ms in
  let net =
    Net.create ~policy ~rings ~rng:(Rng.create 59) ~node_latency:at_timeout overlay
  in
  let src, dst, route = multi_hop_pair overlay ~n:64 ~min_hops:2 in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
  Alcotest.(check bool) "delivered" true (r.Async_route.status = Async_route.Delivered);
  Alcotest.(check (array int)) "undeviated path" route.Route.nodes
    r.Async_route.route.Route.nodes;
  Alcotest.(check int) "no timeouts at the tie" 0 r.Async_route.timeouts;
  Alcotest.(check int) "no retries" 0 r.Async_route.retries;
  Alcotest.(check (float 1e-6)) "wall clock = hops x timeout"
    (Float.of_int (Route.hops route) *. timeout_ms)
    r.Async_route.wall_ms

let test_net_reroutes_around_crashed_hop () =
  let _, rings, overlay = build_crescendo ~n:200 55 in
  let n = 200 in
  let src, dst, route = multi_hop_pair overlay ~n ~min_hops:2 in
  let victim = route.Route.nodes.(1) in
  let plan = Fault_plan.none ~n in
  Fault_plan.crash plan victim;
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 56) ~node_latency:oracle
      overlay
  in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
  Alcotest.(check bool) "still delivered" true (Async_route.delivered r);
  Alcotest.(check int) "same destination" dst (Route.destination r.Async_route.route);
  Alcotest.(check bool) "rerouted status" true (r.Async_route.status = Async_route.Rerouted);
  Alcotest.(check bool) "path avoids the crashed node" false
    (Array.mem victim r.Async_route.route.Route.nodes);
  Alcotest.(check bool) "paid timeouts" true (r.Async_route.timeouts > 0);
  Alcotest.(check bool) "paid retries" true (r.Async_route.retries > 0);
  Alcotest.(check bool) "wall clock grew past the physical path" true
    (r.Async_route.wall_ms > Route.latency r.Async_route.route ~node_latency:oracle)

let test_net_reanchors_through_leaf_set () =
  (* Flat 1-level universe: kill a node's first three ring successors
     and look up the fourth. Every greedy candidate in (src, key] is
     one of the dead successors, so delivery must go through leaf-set
     re-anchoring (paper: "the next leaf-set entry re-anchors the
     ring"). *)
  let pop = make_universe ~levels:1 ~n:64 57 in
  let rings = Rings.build pop in
  let overlay = Crescendo.build rings in
  let src = 0 in
  let sets = Canon_sim.Leaf_sets.successors rings ~node:src ~width:4 in
  Alcotest.(check int) "one level" 1 (Array.length sets);
  let succ = sets.(0) in
  Alcotest.(check int) "four successors" 4 (Array.length succ);
  let plan = Fault_plan.none ~n:64 in
  Fault_plan.crash plan succ.(0);
  Fault_plan.crash plan succ.(1);
  Fault_plan.crash plan succ.(2);
  let dst = succ.(3) in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 58) ~node_latency:oracle
      overlay
  in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
  Alcotest.(check bool) "delivered despite three dead successors" true
    (Async_route.delivered r);
  Alcotest.(check int) "reached the fourth successor" dst
    (Route.destination r.Async_route.route);
  Alcotest.(check bool) "re-anchored at least once" true (r.Async_route.reanchors >= 1);
  Array.iteri
    (fun i v ->
      if i < 3 then
        Alcotest.(check bool) "dead successor not on path" false
          (Array.mem v r.Async_route.route.Route.nodes))
    succ

let test_net_fails_without_leaf_sets () =
  (* Same scenario without ~rings: blocked means failed. *)
  let pop = make_universe ~levels:1 ~n:64 57 in
  let rings = Rings.build pop in
  let overlay = Crescendo.build rings in
  let src = 0 in
  let succ = (Canon_sim.Leaf_sets.successors rings ~node:src ~width:4).(0) in
  let plan = Fault_plan.none ~n:64 in
  Fault_plan.crash plan succ.(0);
  Fault_plan.crash plan succ.(1);
  Fault_plan.crash plan succ.(2);
  let net =
    Net.create ~policy:fast_policy ~plan ~rng:(Rng.create 58) ~node_latency:oracle overlay
  in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay succ.(3)) in
  Alcotest.(check bool) "failed" true (r.Async_route.status = Async_route.Failed);
  Alcotest.(check (option string)) "for want of a candidate" (Some "no-candidate")
    (Option.map Async_route.failure_to_string r.Async_route.failure)

(* Suspicions last one lookup: each lookup rediscovers a crash and pays
   its timeouts again, and nothing stays suspected between lookups. *)
let test_net_suspicions_per_lookup () =
  let _, rings, overlay = build_crescendo ~n:200 55 in
  let n = 200 in
  let src, dst, route = multi_hop_pair overlay ~n ~min_hops:2 in
  let victim = route.Route.nodes.(1) in
  let key = Overlay.id overlay dst in
  let plan = Fault_plan.none ~n in
  Fault_plan.crash plan victim;
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 59) ~node_latency:oracle overlay
  in
  let first = Net.lookup net ~src ~key in
  let second = Net.lookup net ~src ~key in
  Alcotest.(check bool) "first pays timeouts" true (first.Async_route.timeouts > 0);
  Alcotest.(check bool) "second pays again" true (second.Async_route.timeouts > 0);
  Alcotest.(check (array int)) "nothing remembered" [||] (Net.suspected_nodes net)

(* --- Net: loss, deadline -------------------------------------------- *)

let test_net_total_loss_fails () =
  let _, rings, overlay = build_crescendo ~n:200 60 in
  let src, dst, _ = multi_hop_pair overlay ~n:200 ~min_hops:2 in
  let plan = Fault_plan.create ~loss:1.0 ~n:200 () in
  let net =
    Net.create ~policy:fast_policy ~plan ~rings ~rng:(Rng.create 61) ~node_latency:oracle
      overlay
  in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
  Alcotest.(check bool) "failed" true (r.Async_route.status = Async_route.Failed);
  Alcotest.(check bool) "timed out along the way" true (r.Async_route.timeouts > 0);
  Alcotest.(check bool) "lost messages counted" true
    (r.Async_route.losses = r.Async_route.messages && r.Async_route.losses > 0)

let test_net_partial_loss_recovers () =
  let _, rings, overlay = build_crescendo ~n:200 62 in
  let plan = Fault_plan.create ~loss:0.3 ~n:200 () in
  let net =
    Net.create ~plan ~rings ~rng:(Rng.create 63) ~node_latency:oracle overlay
  in
  let rng = Rng.create 64 in
  let delivered = ref 0 and retried = ref 0 in
  for _ = 1 to 60 do
    let src = Rng.int_below rng 200 and dst = Rng.int_below rng 200 in
    let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
    if Async_route.delivered r then incr delivered;
    retried := !retried + r.Async_route.retries
  done;
  Alcotest.(check bool) "most lookups survive 30% loss" true (!delivered >= 55);
  Alcotest.(check bool) "retries did the work" true (!retried > 0)

let test_net_deadline () =
  let _, rings, overlay = build_crescendo ~n:200 67 in
  let src, dst, _ = multi_hop_pair overlay ~n:200 ~min_hops:2 in
  (* Total loss and a generous retry budget: the lookup can only die at
     the deadline. *)
  let policy = { fast_policy with Rpc.max_retries = 1000; deadline_ms = 5000.0 } in
  let plan = Fault_plan.create ~loss:1.0 ~n:200 () in
  let net =
    Net.create ~policy ~plan ~rings ~rng:(Rng.create 68) ~node_latency:oracle overlay
  in
  let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
  Alcotest.(check bool) "failed" true (r.Async_route.status = Async_route.Failed);
  Alcotest.(check (option string)) "at the deadline" (Some "deadline")
    (Option.map Async_route.failure_to_string r.Async_route.failure);
  Alcotest.(check bool) "wall clock clamped to deadline" true
    (r.Async_route.wall_ms <= 5000.0 +. 1e-9)

(* --- Net: determinism, validation, telemetry ----------------------- *)

let test_net_deterministic () =
  let run () =
    let _, rings, overlay = build_crescendo ~n:200 69 in
    let plan = Fault_plan.create ~loss:0.2 ~n:200 () in
    Fault_plan.crash_random plan (Rng.create 70) ~fraction:0.15 ();
    let net =
      Net.create ~plan ~rings ~rng:(Rng.create 71) ~node_latency:oracle overlay
    in
    let rng = Rng.create 72 in
    let out = ref [] in
    for _ = 1 to 80 do
      let src = Rng.int_below rng 200 and dst = Rng.int_below rng 200 in
      if not (Fault_plan.is_crashed plan src) then begin
        let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
        out :=
          ( Async_route.status_to_string r.Async_route.status,
            Array.to_list r.Async_route.route.Route.nodes,
            r.Async_route.wall_ms,
            r.Async_route.messages )
          :: !out
      end
    done;
    List.rev !out
  in
  if run () <> run () then Alcotest.fail "same seed, different simulation"

let test_net_validation () =
  let _, rings, overlay = build_crescendo ~n:64 73 in
  let plan = Fault_plan.none ~n:64 in
  Fault_plan.crash plan 3;
  let net = Net.create ~plan ~rings ~rng:(Rng.create 74) ~node_latency:oracle overlay in
  Alcotest.check_raises "crashed source" (Invalid_argument "Net.lookup: crashed source")
    (fun () -> ignore (Net.lookup net ~src:3 ~key:(Overlay.id overlay 0)));
  Alcotest.check_raises "size mismatch" (Invalid_argument "Net.create: plan/overlay size mismatch")
    (fun () ->
      ignore
        (Net.create ~plan:(Fault_plan.none ~n:10) ~rng:(Rng.create 75)
           ~node_latency:oracle overlay))

(* A lookup still in flight when its caller gives up: [abandon] fails it
   now, fires [on_done] once, and leaves it resolved, so its leftover
   events change nothing and a second [abandon] returns the same
   result. *)
let test_net_abandon () =
  let _, rings, overlay = build_crescendo ~n:64 86 in
  let net = Net.create ~rings ~rng:(Rng.create 87) ~node_latency:oracle overlay in
  let events = ref [] in
  let push ~time ev = events := (time, ev) :: !events in
  let done_count = ref 0 in
  let p =
    Net.launch net ~now:10.0 ~push ~src:3 ~key:(Overlay.id overlay 40)
      ~on_done:(fun _ -> incr done_count)
  in
  Alcotest.(check bool) "in flight" true (Option.is_none (Net.result p));
  Alcotest.(check bool) "first hop scheduled" true (!events <> []);
  let r = Net.abandon net p ~now:25.0 in
  Alcotest.(check bool) "failed" true (r.Async_route.status = Async_route.Failed);
  Alcotest.(check bool) "no candidate" true
    (r.Async_route.failure = Some Async_route.No_candidate);
  Alcotest.(check (array int)) "path: the source only" [| 3 |] r.Async_route.route.Route.nodes;
  Alcotest.(check (float 1e-9)) "wall from launch to abandon" 15.0 r.Async_route.wall_ms;
  Alcotest.(check int) "on_done fired" 1 !done_count;
  List.iter (fun (time, ev) -> Net.handle net ~now:time ~push ev) (List.rev !events);
  Alcotest.(check bool) "leftover events change nothing" true (Net.result p = Some r);
  Alcotest.(check bool) "abandon again: same result" true (Net.abandon net p ~now:99.0 = r);
  Alcotest.(check int) "on_done fired once" 1 !done_count

let test_net_telemetry () =
  let _, rings, overlay = build_crescendo ~n:64 80 in
  let net = Net.create ~rings ~rng:(Rng.create 81) ~node_latency:oracle overlay in
  let lookups_before = Metrics.value (Metrics.counter "net.lookups") in
  let sink = Canon_telemetry.Sink.memory () in
  let trace = Trace.create ~sink () in
  Trace.set_ambient (Some trace);
  Fun.protect
    ~finally:(fun () -> Trace.set_ambient None)
    (fun () ->
      let r = Net.lookup net ~src:1 ~key:(Overlay.id overlay 40) in
      Alcotest.(check int) "one lookup counted" (lookups_before + 1)
        (Metrics.value (Metrics.counter "net.lookups"));
      match Canon_telemetry.Sink.spans sink with
      | [ span ] ->
          Alcotest.(check string) "span kind" "canon_net.lookup" span.Span.kind;
          Alcotest.(check (array int)) "span path is the realized path"
            r.Async_route.route.Route.nodes (Span.path span)
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

(* --- Net: live membership ------------------------------------------ *)

module Maintenance = Canon_sim.Maintenance
module Event_queue = Canon_sim.Event_queue
module Churn = Canon_sim.Churn

let test_live_view_tracks_membership () =
  let pop = make_universe ~n:64 83 in
  let m = Maintenance.create pop ~present:(Array.init 64 Fun.id) in
  let v = Live_view.crescendo m in
  Alcotest.(check bool) "live" true (Live_view.is_live v 5);
  Alcotest.(check (array int)) "links = maintained links" (Maintenance.links m 5)
    (Live_view.links v 5);
  let g0 = Live_view.generation v in
  ignore (Maintenance.leave m 5);
  Live_view.on_hook v (Churn.Leave 5);
  Alcotest.(check bool) "gone after leave" false (Live_view.is_live v 5);
  Alcotest.(check (array int)) "no links when dead" [||] (Live_view.links v 5);
  Alcotest.(check bool) "generation bumped" true (Live_view.generation v > g0)

let test_live_view_chord_links () =
  let pop = make_universe ~n:64 84 in
  let m = Maintenance.create pop ~present:(Array.init 64 Fun.id) in
  let v = Live_view.chord m in
  (* the finger rule applied to the live global ring *)
  let expect u =
    let ring = Rings.ring_of_node_at_depth (Maintenance.rings m) u 0 in
    Chord.links_of_id ring pop.Population.ids.(u) ~self:u
  in
  Alcotest.(check (array int)) "finger rule over live global ring" (expect 7)
    (Live_view.links v 7);
  Alcotest.(check (array int)) "memoized lookup is stable" (Live_view.links v 7)
    (Live_view.links v 7);
  let victim = (expect 7).(0) in
  ignore (Maintenance.leave m victim);
  Live_view.bump v;
  Alcotest.(check (array int)) "recomputed after bump" (expect 7) (Live_view.links v 7);
  Alcotest.(check bool) "departed finger dropped" false
    (Array.mem victim (Live_view.links v 7))

(* Satellite regression: the next hop leaves while the RPC is in flight.
   A pinned seed and the jitter-free [fast_policy] make the whole
   episode arithmetic: send at 0 -> the Deliver is suppressed (target
   left at t = 5, before any edge's >= 10 ms latency elapses) -> timeout
   at 100 -> retry after the 10 ms backoff at 110 -> timeout at 210 ->
   suspect -> reroute over the post-leave links straight to delivery. *)
let test_net_midflight_leave_reroutes () =
  let pop = make_universe ~n:64 85 in
  let m = Maintenance.create pop ~present:(Array.init 64 Fun.id) in
  let view = Live_view.crescendo m in
  let overlay = Maintenance.overlay m in
  let src, dst, route = multi_hop_pair overlay ~n:64 ~min_hops:2 in
  let victim = route.Route.nodes.(1) in
  let net =
    Net.create ~live:view ~policy:fast_policy ~rng:(Rng.create 86) ~node_latency:oracle
      overlay
  in
  let timeouts0 = Metrics.value (Metrics.counter "net.timeouts") in
  let retries0 = Metrics.value (Metrics.counter "net.retries") in
  let q = Event_queue.create () in
  let push ~time ev = Event_queue.push q ~time (`Net ev) in
  let p = Net.launch net ~now:0.0 ~push ~src ~key:(Overlay.id overlay dst) in
  Event_queue.push q ~time:5.0 `Leave_victim;
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, `Leave_victim) ->
        ignore (Maintenance.leave m victim);
        Live_view.on_hook view (Churn.Leave victim);
        drain ()
    | Some (t, `Net ev) ->
        Net.handle net ~now:t ~push ev;
        drain ()
  in
  drain ();
  let r =
    match Net.result p with Some r -> r | None -> Alcotest.fail "lookup never resolved"
  in
  Alcotest.(check bool) "rerouted" true (r.Async_route.status = Async_route.Rerouted);
  Alcotest.(check int) "reaches the destination" dst
    (Route.destination r.Async_route.route);
  Alcotest.(check int) "exactly two timeouts" 2 r.Async_route.timeouts;
  Alcotest.(check int) "exactly one retry" 1 r.Async_route.retries;
  Alcotest.(check int) "no reanchors" 0 r.Async_route.reanchors;
  Alcotest.(check int) "no losses" 0 r.Async_route.losses;
  Alcotest.(check bool) "victim not on the realized path" false
    (Array.mem victim r.Async_route.route.Route.nodes);
  (* after the reroute the lookup is still at [src], so it must follow
     the post-leave greedy path exactly *)
  let post =
    Router.greedy_clockwise (Maintenance.overlay m) ~src ~key:(Overlay.id overlay dst)
  in
  Alcotest.(check (array int)) "path = post-leave greedy path" post.Route.nodes
    r.Async_route.route.Route.nodes;
  Alcotest.(check (float 1e-6)) "wall = 2 timeout windows + backoff + detour latency"
    (210.0 +. Route.latency post ~node_latency:oracle)
    r.Async_route.wall_ms;
  Alcotest.(check int) "messages = 2 wasted sends + detour hops" (2 + Route.hops post)
    r.Async_route.messages;
  Alcotest.(check int) "net.timeouts counter" (timeouts0 + 2)
    (Metrics.value (Metrics.counter "net.timeouts"));
  Alcotest.(check int) "net.retries counter" (retries0 + 1)
    (Metrics.value (Metrics.counter "net.retries"))

(* Interleaving many fault-free lookups on one shared queue changes
   nothing: each result is byte-identical to the same lookup run alone
   through [Net.lookup] (the fault-free path never consumes RNG). *)
let test_net_merged_lookups_match_sequential () =
  let _, rings, overlay = build_crescendo ~n:200 88 in
  let merged = Net.create ~rings ~rng:(Rng.create 89) ~node_latency:oracle overlay in
  let seq = Net.create ~rings ~rng:(Rng.create 89) ~node_latency:oracle overlay in
  let prng = Rng.create 90 in
  let k = 12 in
  let pairs = Array.make k (0, 0) in
  for i = 0 to k - 1 do
    let src = Rng.int_below prng 200 in
    let dst = Rng.int_below prng 200 in
    pairs.(i) <- (src, dst)
  done;
  let q = Event_queue.create () in
  let push ~time ev = Event_queue.push q ~time ev in
  let pendings =
    Array.mapi
      (fun i (src, dst) ->
        Net.launch merged ~now:(Float.of_int (17 * i)) ~push ~src
          ~key:(Overlay.id overlay dst))
      pairs
  in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, ev) ->
        Net.handle merged ~now:t ~push ev;
        drain ()
  in
  drain ();
  Array.iteri
    (fun i (src, dst) ->
      let rm =
        match Net.result pendings.(i) with
        | Some r -> r
        | None -> Alcotest.fail "lookup never resolved"
      in
      let rs = Net.lookup seq ~src ~key:(Overlay.id overlay dst) in
      Alcotest.(check bool) "same status" true
        (rm.Async_route.status = rs.Async_route.status);
      Alcotest.(check (array int)) "same path" rs.Async_route.route.Route.nodes
        rm.Async_route.route.Route.nodes;
      Alcotest.(check (float 1e-9)) "same wall" rs.Async_route.wall_ms
        rm.Async_route.wall_ms;
      Alcotest.(check int) "same messages" rs.Async_route.messages
        rm.Async_route.messages)
    pairs

let suites =
  [
    ( "net-rpc",
      [
        Alcotest.test_case "validate" `Quick test_rpc_validate;
        Alcotest.test_case "backoff growth and jitter" `Quick test_rpc_backoff;
      ] );
    ( "net-fault-plan",
      [
        Alcotest.test_case "basics" `Quick test_fault_plan_basics;
        Alcotest.test_case "loss draws" `Quick test_fault_plan_draw_lost;
        Alcotest.test_case "crash domain" `Quick test_fault_plan_crash_domain;
        Alcotest.test_case "crash random with protect" `Quick
          test_fault_plan_crash_random_protect;
      ] );
    ( "net-lookup",
      [
        Alcotest.test_case "fault-free = synchronous greedy" `Quick
          test_net_fault_free_matches_sync;
        Alcotest.test_case "self lookup" `Quick test_net_self_lookup;
        Alcotest.test_case "latency exactly at timeout is delivered" `Quick
          test_net_latency_exactly_timeout_delivered;
        Alcotest.test_case "reroutes around a crashed hop" `Quick
          test_net_reroutes_around_crashed_hop;
        Alcotest.test_case "leaf-set re-anchor after multi-successor failure" `Quick
          test_net_reanchors_through_leaf_set;
        Alcotest.test_case "blocked without leaf sets" `Quick
          test_net_fails_without_leaf_sets;
        Alcotest.test_case "suspicions last one lookup" `Quick test_net_suspicions_per_lookup;
        Alcotest.test_case "total loss fails" `Quick test_net_total_loss_fails;
        Alcotest.test_case "partial loss recovers" `Quick test_net_partial_loss_recovers;
        Alcotest.test_case "deadline" `Quick test_net_deadline;
        Alcotest.test_case "deterministic" `Quick test_net_deterministic;
        Alcotest.test_case "validation" `Quick test_net_validation;
        Alcotest.test_case "telemetry" `Quick test_net_telemetry;
        Alcotest.test_case "abandon" `Quick test_net_abandon;
      ] );
    ( "net-live",
      [
        Alcotest.test_case "live view tracks membership" `Quick
          test_live_view_tracks_membership;
        Alcotest.test_case "live chord links" `Quick test_live_view_chord_links;
        Alcotest.test_case "mid-flight leave reroutes" `Quick
          test_net_midflight_leave_reroutes;
        Alcotest.test_case "merged lookups = sequential" `Quick
          test_net_merged_lookups_match_sequential;
      ] );
  ]
