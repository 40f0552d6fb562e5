(* Tests for the event queue, the dynamic-maintenance protocol and the
   churn driver. The central assertion: the maintained link state always
   equals the static Crescendo construction over the live population. *)

open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_sim
module Rng = Canon_rng.Rng

(* --- Event queue --------------------------------------------------- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  Alcotest.(check int) "size" 3 (Event_queue.size q);
  let order = List.init 3 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun x -> Event_queue.push q ~time:5.0 x) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> -1) in
  Alcotest.(check (list int)) "fifo among ties" [ 1; 2; 3; 4 ] order

let test_event_queue_invalid () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Event_queue.push q ~time:(-1.0) ());
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Event_queue.push q ~time:Float.nan ())

(* Every event left in the queue, earliest first, through [pop]. *)
let drain q =
  let rec go acc = match Event_queue.pop q with Some e -> go (e :: acc) | None -> List.rev acc in
  go []

(* Randomized permutations of a batch with heavy ties: each round
   shuffles (timestamp, payload) pairs where every timestamp is shared
   by at least three events, pushes them in the shuffled order, and
   drains the queue. Among equal timestamps the drain must reproduce
   the (shuffled) insertion order exactly. *)
let test_drain_permuted_ties () =
  let rng = Rng.create 41 in
  for round = 0 to 49 do
    let events =
      Array.init 12 (fun i -> (Float.of_int (i / 4), i) (* 3 times x 4 ties *))
    in
    Rng.shuffle_in_place rng events;
    let q = Event_queue.create () in
    Array.iter (fun (t, x) -> Event_queue.push q ~time:t x) events;
    let expected =
      List.stable_sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (Array.to_list events)
    in
    if drain q <> expected then
      Alcotest.failf "round %d: pop broke FIFO order among >= 3-way ties" round
  done

(* The FIFO tie-break pin: draining through pop must equal a stable
   sort of the insertion sequence by timestamp — equal timestamps stay
   in insertion order. Timestamps are drawn from a tiny set so ties are
   plentiful. *)
let prop_drain_is_stable_sort =
  QCheck.Test.make ~count:300 ~name:"pop drain = stable sort by time"
    QCheck.(list (int_bound 3))
    (fun times ->
      let q = Event_queue.create () in
      let events = List.mapi (fun i t -> (Float.of_int t, i)) times in
      List.iter (fun (t, i) -> Event_queue.push q ~time:t i) events;
      drain q = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events)

let test_event_queue_stress () =
  let q = Event_queue.create () in
  let rng = Rng.create 3 in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Rng.float rng) i
  done;
  let last = ref (-1.0) in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, _) ->
        if t < !last then Alcotest.fail "out of order";
        last := t;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all popped" 1000 !count

(* --- Maintenance --------------------------------------------------- *)

let make_universe ~n seed =
  let rng = Rng.create seed in
  let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:4 ~levels:3) in
  Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n

(* The maintained state must equal the static construction over the
   live nodes. *)
let check_equivalence m pop =
  let live = Maintenance.present m in
  let fresh_rings = Rings.build_partial pop ~present:live in
  Array.iter
    (fun node ->
      let expected = Crescendo.links_of_node fresh_rings node in
      let actual = Maintenance.links m node in
      let sort a = let a = Array.copy a in Array.sort Int.compare a; a in
      if sort expected <> sort actual then
        Alcotest.failf "node %d: maintained links diverge from static construction" node)
    live

let test_join_equivalence () =
  let pop = make_universe ~n:300 10 in
  let order = Array.init 300 Fun.id in
  Rng.shuffle_in_place (Rng.create 11) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 50) in
  check_equivalence m pop;
  (* join 60 more, checking periodically *)
  for i = 50 to 109 do
    let stats = Maintenance.join m order.(i) in
    if Maintenance.total stats <= 0 then Alcotest.fail "join must cost messages";
    if i mod 10 = 0 then check_equivalence m pop
  done;
  check_equivalence m pop

let test_leave_equivalence () =
  let pop = make_universe ~n:200 12 in
  let order = Array.init 200 Fun.id in
  Rng.shuffle_in_place (Rng.create 13) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 150) in
  for i = 0 to 59 do
    ignore (Maintenance.leave m order.(i));
    if i mod 10 = 0 then check_equivalence m pop
  done;
  check_equivalence m pop

let test_mixed_churn_equivalence () =
  let pop = make_universe ~n:250 14 in
  let order = Array.init 250 Fun.id in
  Rng.shuffle_in_place (Rng.create 15) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 100) in
  let rng = Rng.create 16 in
  for step = 1 to 80 do
    let live = Maintenance.present m in
    let absent =
      Array.to_list order |> List.filter (fun v -> not (Maintenance.is_present m v))
    in
    if (Rng.bool rng && absent <> []) || Array.length live <= 10 then begin
      match absent with
      | [] -> ()
      | node :: _ -> ignore (Maintenance.join m node)
    end
    else ignore (Maintenance.leave m (Rng.pick rng live));
    if step mod 16 = 0 then check_equivalence m pop
  done;
  check_equivalence m pop

let test_join_message_cost_logarithmic () =
  let pop = make_universe ~n:600 17 in
  let order = Array.init 600 Fun.id in
  Rng.shuffle_in_place (Rng.create 18) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 500) in
  let total = ref 0 in
  for i = 500 to 559 do
    total := !total + Maintenance.total (Maintenance.join m order.(i))
  done;
  let mean = Float.of_int !total /. 60.0 in
  (* O(log n): log2 500 ~ 9; allow a generous constant factor. *)
  Alcotest.(check bool) (Printf.sprintf "mean join cost %.1f = O(log n)" mean) true (mean < 60.0)

let test_routing_after_churn () =
  let pop = make_universe ~n:300 19 in
  let order = Array.init 300 Fun.id in
  Rng.shuffle_in_place (Rng.create 20) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 200) in
  let rng = Rng.create 21 in
  for _ = 1 to 40 do
    let live = Maintenance.present m in
    if Rng.bool rng then begin
      match
        Array.to_list order |> List.filter (fun v -> not (Maintenance.is_present m v))
      with
      | [] -> ()
      | node :: _ -> ignore (Maintenance.join m node)
    end
    else if Array.length live > 50 then ignore (Maintenance.leave m (Rng.pick rng live))
  done;
  let overlay = Maintenance.overlay m in
  let live = Maintenance.present m in
  for _ = 1 to 200 do
    let src = Rng.pick rng live and dst = Rng.pick rng live in
    let route = Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst) in
    Alcotest.(check int) "routes reach after churn" dst (Route.destination route)
  done

let test_join_validation () =
  let pop = make_universe ~n:50 22 in
  let m = Maintenance.create pop ~present:[| 0; 1; 2 |] in
  Alcotest.check_raises "double join" (Invalid_argument "Maintenance.join: already present")
    (fun () -> ignore (Maintenance.join m 0));
  Alcotest.check_raises "leave absent" (Invalid_argument "Maintenance.leave: node not present")
    (fun () -> ignore (Maintenance.leave m 10));
  Alcotest.check_raises "join out of range" (Invalid_argument "Maintenance.join: node out of range")
    (fun () -> ignore (Maintenance.join m 50))

let test_first_node_join () =
  let pop = make_universe ~n:10 23 in
  let m = Maintenance.create pop ~present:[||] in
  let stats = Maintenance.join m 0 in
  Alcotest.(check int) "no routing for the first node" 0 stats.Maintenance.routing_messages;
  Alcotest.(check int) "one live node" 1 (Array.length (Maintenance.present m));
  let stats2 = Maintenance.join m 1 in
  Alcotest.(check bool) "second join links up" true (stats2.Maintenance.link_messages > 0);
  check_equivalence m pop

(* Two producers (think: churn events and RPC hops) interleaving pushes
   at one timestamp share the queue's single FIFO order — global
   insertion order, blind to who produced what. *)
let test_event_queue_two_producer_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:7.0 "churn:leave";
  Event_queue.push q ~time:7.0 "rpc:deliver";
  Event_queue.push q ~time:7.0 "churn:join";
  Event_queue.push q ~time:7.0 "rpc:timeout";
  Event_queue.push q ~time:3.0 "rpc:send";
  let order =
    List.init 5 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> "?")
  in
  Alcotest.(check (list string))
    "earlier time first, then global insertion order"
    [ "rpc:send"; "churn:leave"; "rpc:deliver"; "churn:join"; "rpc:timeout" ]
    order

(* --- Order-statistic set ------------------------------------------- *)

(* Random adds and removes (repeats included) against a boolean-array
   model: after every operation the count and every rank of [nth] agree
   with the model's sorted members. Capacities cover 0, 1, powers of
   two and their neighbours. *)
let test_order_set_model () =
  let rng = Rng.create 91 in
  List.iter
    (fun capacity ->
      let set = Order_set.create capacity and model = Array.make capacity false in
      for _ = 1 to 4 * capacity do
        let i = Rng.int_below rng capacity in
        if Rng.bool rng then begin
          Order_set.add set i;
          model.(i) <- true
        end
        else begin
          Order_set.remove set i;
          model.(i) <- false
        end;
        let sorted = List.filter (fun v -> model.(v)) (List.init capacity Fun.id) in
        Alcotest.(check int) "count" (List.length sorted) (Order_set.count set);
        List.iteri (fun j v -> Alcotest.(check int) "nth" v (Order_set.nth set j)) sorted
      done;
      Alcotest.check_raises "nth past count" (Invalid_argument "Order_set.nth: rank out of range")
        (fun () -> ignore (Order_set.nth set (Order_set.count set))))
    [ 0; 1; 2; 3; 7; 8; 9; 16; 33; 100 ];
  Alcotest.check_raises "add out of range" (Invalid_argument "Order_set.add: out of range")
    (fun () -> Order_set.add (Order_set.create 4) 4);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Order_set.create: negative capacity") (fun () ->
      ignore (Order_set.create (-1)))

(* --- Churn driver -------------------------------------------------- *)

let test_churn_run () =
  let pop = make_universe ~n:400 24 in
  let config =
    {
      Churn.initial_nodes = 120;
      events = 60;
      join_fraction = 0.5;
      probes_per_event = 2;
      mean_interarrival = 0.5;
    }
  in
  let report = Churn.run (Rng.create 25) pop config in
  Alcotest.(check int) "no failed probes" 0 report.Churn.failed_probes;
  Alcotest.(check bool) "probes happened" true (report.Churn.probes > 0);
  Alcotest.(check bool) "events happened" true (report.Churn.joins + report.Churn.leaves > 0);
  Alcotest.(check bool) "time advanced" true (report.Churn.sim_time > 0.0);
  Alcotest.(check bool) "population sane" true
    (report.Churn.final_population > 0 && report.Churn.final_population <= 400)

(* [run] is a thin wrapper over [prepare]/[apply]: with the same seed
   (and no probes, so no extra draws) a manual prepare + queue-drained
   apply reproduces its joins, leaves and final membership exactly. *)
let test_churn_prepare_apply_matches_run () =
  let pop = make_universe ~n:400 24 in
  let config =
    {
      Churn.initial_nodes = 120;
      events = 60;
      join_fraction = 0.5;
      probes_per_event = 0;
      mean_interarrival = 0.5;
    }
  in
  let report = Churn.run (Rng.create 77) pop config in
  let hooks = ref 0 in
  let driver, schedule =
    Churn.prepare ~on_event:(fun _ -> incr hooks) (Rng.create 77) pop config
  in
  Alcotest.(check int) "schedule length = config.events" 60 (List.length schedule);
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
  Alcotest.(check int) "joins" report.Churn.joins (Churn.joins driver);
  Alcotest.(check int) "leaves" report.Churn.leaves (Churn.leaves driver);
  let m = Churn.maintenance driver in
  Alcotest.(check int) "final population" report.Churn.final_population
    (Array.length (Maintenance.present m));
  Alcotest.(check int) "every event fired a hook (plus Init)" 61 !hooks;
  check_equivalence m pop

let suites =
  [
    ( "event-queue",
      [
        Alcotest.test_case "order" `Quick test_event_queue_order;
        Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
        Alcotest.test_case "invalid times" `Quick test_event_queue_invalid;
        Alcotest.test_case "drain permuted ties" `Quick test_drain_permuted_ties;
        QCheck_alcotest.to_alcotest prop_drain_is_stable_sort;
        Alcotest.test_case "stress" `Quick test_event_queue_stress;
        Alcotest.test_case "two-producer ties" `Quick test_event_queue_two_producer_ties;
      ] );
    ( "maintenance",
      [
        Alcotest.test_case "join equivalence" `Quick test_join_equivalence;
        Alcotest.test_case "leave equivalence" `Quick test_leave_equivalence;
        Alcotest.test_case "mixed churn equivalence" `Quick test_mixed_churn_equivalence;
        Alcotest.test_case "join cost O(log n)" `Quick test_join_message_cost_logarithmic;
        Alcotest.test_case "routing after churn" `Quick test_routing_after_churn;
        Alcotest.test_case "validation" `Quick test_join_validation;
        Alcotest.test_case "first node" `Quick test_first_node_join;
      ] );
    ("order-set", [ Alcotest.test_case "model" `Quick test_order_set_model ]);
    ( "churn",
      [
        Alcotest.test_case "driver run" `Quick test_churn_run;
        Alcotest.test_case "prepare/apply = run" `Quick
          test_churn_prepare_apply_matches_run;
      ] );
  ]

(* --- Leaf sets and crash recovery ---------------------------------- *)

let test_leaf_sets_structure () =
  let pop = make_universe ~n:200 30 in
  let rings = Rings.build pop in
  for node = 0 to 199 do
    let sets = Leaf_sets.successors rings ~node ~width:4 in
    let chain = Rings.chain rings node in
    Alcotest.(check int) "one set per level" (Array.length chain) (Array.length sets);
    Array.iteri
      (fun level set ->
        let ring = Rings.ring rings chain.(level) in
        (* first entry is the level successor *)
        if Ring.size ring >= 2 then
          Alcotest.(check int) "first = level successor"
            (Ring.successor_of_id ring pop.Population.ids.(node))
            set.(0);
        Array.iter (fun v -> if v = node then Alcotest.fail "self in leaf set") set;
        (* entries are distinct *)
        let seen = Hashtbl.create 8 in
        Array.iter
          (fun v ->
            if Hashtbl.mem seen v then Alcotest.fail "duplicate leaf-set entry";
            Hashtbl.add seen v ())
          set)
      sets
  done

let test_leaf_sets_small_ring () =
  let pop = make_universe ~n:3 31 in
  let rings = Rings.build pop in
  let sets = Leaf_sets.successors rings ~node:0 ~width:10 in
  (* never more entries than other ring members *)
  Array.iter (fun set -> Alcotest.(check bool) "bounded" true (Array.length set <= 2)) sets

let test_crash_leaves_stale_links_and_repair_fixes () =
  let pop = make_universe ~n:300 32 in
  let order = Array.init 300 Fun.id in
  Rng.shuffle_in_place (Rng.create 33) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 200) in
  (* crash 20 nodes abruptly *)
  let victims = Array.sub order 0 20 in
  Array.iter (fun v -> Maintenance.crash m v) victims;
  let stale = Maintenance.stale_nodes m in
  Alcotest.(check bool) "someone holds stale links" true (Array.length stale > 0);
  (* repair restores exact equivalence with the static construction *)
  let stats = Maintenance.repair m in
  Alcotest.(check int) "repair notified each stale node" (Array.length stale)
    stats.Maintenance.notify_messages;
  Alcotest.(check int) "no stale links remain" 0 (Array.length (Maintenance.stale_nodes m));
  check_equivalence m pop

let test_routing_during_crash_window () =
  (* Between crash and repair, failure-avoiding routing still delivers
     intra-domain lookups when the failures are outside the domain. *)
  let pop = make_universe ~n:400 34 in
  let all = Array.init 400 Fun.id in
  let m = Maintenance.create pop ~present:all in
  let tree = pop.Population.tree in
  let domain = (Canon_hierarchy.Domain_tree.children tree 0).(0) in
  let in_domain node =
    Canon_hierarchy.Domain_tree.is_ancestor tree ~anc:domain
      ~desc:pop.Population.leaf_of_node.(node)
  in
  (* crash a third of the outside world *)
  let rng = Rng.create 35 in
  Array.iter
    (fun node ->
      if (not (in_domain node)) && Rng.float rng < 0.33 && Maintenance.is_present m node then
        Maintenance.crash m node)
    all;
  let overlay = Maintenance.overlay m in
  let members = Array.of_list (List.filter in_domain (Array.to_list all)) in
  if Array.length members >= 2 then
    for _ = 1 to 100 do
      let src = Rng.pick rng members and dst = Rng.pick rng members in
      match
        Router.greedy_clockwise_avoiding overlay
          ~dead:(fun v -> not (Maintenance.is_present m v))
          ~src ~key:(Overlay.id overlay dst)
      with
      | Some route -> Alcotest.(check int) "delivered in crash window" dst (Route.destination route)
      | None -> Alcotest.fail "intra-domain lookup lost during outside crashes"
    done;
  (* and repair re-establishes full global service *)
  ignore (Maintenance.repair m);
  check_equivalence m pop

(* Joins and leaves in the crash window leave the stale nodes for
   [repair], which then restores the static construction byte for byte;
   a crashed node still linked to cannot rejoin first. *)
let test_events_in_crash_window_then_repair () =
  let pop = make_universe ~n:300 24 in
  let order = Array.init 300 Fun.id in
  Rng.shuffle_in_place (Rng.create 25) order;
  let m = Maintenance.create pop ~present:(Array.sub order 0 200) in
  Array.iter (Maintenance.crash m) (Array.sub order 0 10);
  Alcotest.check_raises "rejoin before repair"
    (Invalid_argument "Maintenance.join: crashed node not yet repaired") (fun () ->
      ignore (Maintenance.join m order.(0)));
  let rng = Rng.create 26 in
  let joiners = ref (Array.to_list (Array.sub order 200 100)) in
  for _ = 1 to 20 do
    match !joiners with
    | v :: rest when Rng.bool rng ->
        joiners := rest;
        ignore (Maintenance.join m v)
    | _ -> ignore (Maintenance.leave m (Rng.pick rng (Maintenance.present m)))
  done;
  Alcotest.(check bool) "stale nodes await repair" true
    (Array.length (Maintenance.stale_nodes m) > 0);
  ignore (Maintenance.repair m);
  let live = Maintenance.present m in
  let fresh_rings = Rings.build_partial pop ~present:live in
  Array.iter
    (fun node ->
      Alcotest.(check (array int))
        (Printf.sprintf "node %d after repair" node)
        (Crescendo.links_of_node fresh_rings node)
        (Maintenance.links m node))
    live

let test_repair_idempotent () =
  let pop = make_universe ~n:100 36 in
  let m = Maintenance.create pop ~present:(Array.init 100 Fun.id) in
  Maintenance.crash m 5;
  ignore (Maintenance.repair m);
  let stats = Maintenance.repair m in
  Alcotest.(check int) "second repair is free" 0 (Maintenance.total stats)

let extra_suites =
  [
    ( "leaf-sets",
      [
        Alcotest.test_case "structure" `Quick test_leaf_sets_structure;
        Alcotest.test_case "small rings" `Quick test_leaf_sets_small_ring;
      ] );
    ( "crash-recovery",
      [
        Alcotest.test_case "crash + repair equivalence" `Quick
          test_crash_leaves_stale_links_and_repair_fixes;
        Alcotest.test_case "routing in crash window" `Quick test_routing_during_crash_window;
        Alcotest.test_case "repair idempotent" `Quick test_repair_idempotent;
        Alcotest.test_case "events in crash window, then repair" `Quick
          test_events_in_crash_window_then_repair;
      ] );
  ]

let suites = suites @ extra_suites
