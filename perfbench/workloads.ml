(* The three benchmark workloads. Each has a set-up that builds the
   system and generates every input from the seed, and a timed phase
   that replays those inputs against the library and checks the
   outputs. Both take an optional span recorder: [None] is the
   end-to-end run, [Some] the traced run, where the calls into each
   layer are wrapped in spans. *)

open Canon_topology
open Canon_overlay
open Canon_core
open Canon_sim
open Canon_net
open Canon_storage
open Canon_experiments
module Rng = Canon_rng.Rng
module Domain_tree = Canon_hierarchy.Domain_tree
module Stats = Canon_stats.Stats
module Metrics = Canon_telemetry.Metrics

type scale = Full | Small

type tracer = Spans.t option

let now_ns = Spans.now_ns

let nid tr name = match tr with None -> 0 | Some t -> Spans.name_id t name

let span tr name f =
  match tr with None -> f () | Some t -> Spans.with_span t (Spans.name_id t name) f

(* The latency oracle as the library sees it: a closure. Traced runs
   wrap it so every query is a span. *)
let traced_latency tr base =
  match tr with
  | None -> base
  | Some t ->
      let id = Spans.name_id t "latency.node_latency" in
      fun a b ->
        let i = Spans.enter t id in
        let x = base a b in
        Spans.leave t i;
        x

type result = {
  attempted : int;
  failed : int;
  violations : string list;  (** correctness violations, empty when correct *)
  op_ns : int array;  (** host ns attributed to each op, rounds contiguous *)
  round_ops : int array;  (** ops in each round *)
  round_ns : int array;  (** host ns of each round *)
  sim_p50 : float;  (** simulated ms *)
  sim_p95 : float;
  sim_p99 : float;
  counters : (string * int) list;  (** library counters over the timed phase *)
  layer : (string * float) list;  (** other per-layer values over the timed phase *)
  gc_minor_words : float;
  gc_major : int;
}

(* What a workload is: a set-up that returns a closure running the timed
   phase of [rounds] rounds. The closure owns the built system. Host
   metrics are taken per round, so a slow spell of the host that covers
   a minority of the rounds does not move their median. *)
type t = {
  name : string;
  setup : scale:scale -> seed:int -> rounds:int -> tracer -> unit -> result;
}

let percentile xs p = if Array.length xs = 0 then 0.0 else Stats.percentile xs p

let counters () =
  List.filter (fun (_, v) -> v <> 0) (Metrics.snapshot ()).Metrics.counters

(* Runs [rounds] rounds as the timed phase: resets the metric registry
   first so counters cover exactly this phase, runs [before k] and a
   major collection before round [k] (both outside its timing) so no
   round pays for its inputs or an earlier one's garbage, and records
   each round's host time and GC work. *)
let timed ?(before = fun (_ : int) -> ()) ~rounds round =
  Metrics.reset ();
  let round_ns = Array.make rounds 0 in
  let minor = ref 0.0 and major = ref 0 in
  let results =
    List.init rounds (fun k ->
        before k;
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let t0 = now_ns () in
        let r = round k in
        round_ns.(k) <- now_ns () - t0;
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
        r)
  in
  (results, round_ns, !minor, !major)

(* The Latency_bench.scaled_params recipe: the default transit skeleton
   with stub domains widened to reach about [routers] routers. *)
let scaled_params ~routers =
  let p = Transit_stub.default_params in
  let transit = p.Transit_stub.transit_domains * p.Transit_stub.transit_nodes_per_domain in
  let domains = transit * p.Transit_stub.stub_domains_per_transit_node in
  let per_domain = max 1 ((routers - transit + domains - 1) / domains) in
  { p with Transit_stub.stub_routers_per_domain = per_domain }

(* A topology with a fresh lazy oracle. *)
let fresh_topology ~routers ~seed =
  let ts = Transit_stub.generate (Rng.create seed) (scaled_params ~routers) in
  { Common.ts; latency = Latency.create ts; tree = Transit_stub.hierarchy ts; mean_direct = 0.0 }

(* The warm topology of faulty_kv and live_churn: the experiments'
   2040-router set-up with every oracle row computed, so timed queries
   only ever hit cached rows. *)
let warm_topology tr ~scale ~seed =
  let setup =
    span tr "topology.generate" (fun () ->
        match scale with
        | Full -> Common.topology_setup ~seed
        | Small -> fresh_topology ~routers:256 ~seed)
  in
  span tr "latency.warm" (fun () ->
      for r = 0 to Transit_stub.num_routers setup.Common.ts - 1 do
        ignore (Latency.router_latency setup.Common.latency r 0)
      done);
  setup

let latency_layer before after =
  let d f = f after - f before in
  let hits = d (fun s -> s.Latency.hits) and misses = d (fun s -> s.Latency.misses) in
  [
    ("latency.rows_computed", Float.of_int (d (fun s -> s.Latency.rows_computed)));
    ( "latency.hit_ratio",
      if hits + misses = 0 then 0.0 else Float.of_int hits /. Float.of_int (hits + misses) );
  ]

(* --- static_lookup ---------------------------------------------------- *)

(* One round of the fig5/fig6 loop on its own topology: a transit-stub
   graph with a fresh lazy oracle, the Chord and Crescendo overlays of
   its population, and [per_round] lookups between random node pairs.
   Returns the closure that runs them as ops [first ..], alternating
   Chord and Crescendo greedy routes, each priced through the oracle.
   [build_tr] records the build, which is set-up work. *)
let static_round tr ~build_tr ~routers ~n ~per_round ~seed =
  let setup = span build_tr "topology.generate" (fun () -> fresh_topology ~routers ~seed) in
  let pop =
    span build_tr "population.attach" (fun () ->
        Common.topology_population ~seed:(seed + 1) setup ~n)
  in
  let attach = Option.get pop.Population.attach in
  let rings = span build_tr "rings.build" (fun () -> Rings.build pop) in
  let chord = span build_tr "overlay.build" (fun () -> Chord.build pop) in
  let crescendo = span build_tr "overlay.build" (fun () -> Crescendo.build rings) in
  let root = Domain_tree.root pop.Population.tree in
  let rng = Rng.create (seed + 2) in
  let src = Array.init per_round (fun _ -> Rng.int_below rng n) in
  let key = Array.init per_round (fun _ -> pop.Population.ids.(Rng.int_below rng n)) in
  (* The expected end of every route, from the global ring alone. *)
  let expected = Array.map (fun key -> Rings.responsible rings ~domain:root ~key) key in
  let n_op = nid tr "op" and n_router = nid tr "router.greedy_clockwise" in
  let n_price = nid tr "route.latency" in
  fun ~first ~op_ns ~sim ~failed ~hops ->
    let latency = Latency.create setup.Common.ts in
    let node_latency =
      traced_latency tr (fun a b -> Latency.node_latency latency attach.(a) attach.(b))
    in
    for j = 0 to per_round - 1 do
      let i = first + j in
      let overlay = if i land 1 = 0 then chord else crescendo in
      let t0 = now_ns () in
      let route, lat =
        match tr with
        | None ->
            let route = Router.greedy_clockwise overlay ~src:src.(j) ~key:key.(j) in
            (route, Route.latency route ~node_latency)
        | Some t ->
            Spans.set_op t i;
            let o = Spans.enter t n_op in
            let r = Spans.enter t n_router in
            let route = Router.greedy_clockwise overlay ~src:src.(j) ~key:key.(j) in
            Spans.leave t r;
            let p = Spans.enter t n_price in
            let lat = Route.latency route ~node_latency in
            Spans.leave t p;
            Spans.leave t o;
            (route, lat)
      in
      op_ns.(i) <- now_ns () - t0;
      sim.(i) <- lat;
      hops := !hops + Route.hops route;
      if Route.destination route <> expected.(j) then incr failed
    done;
    Latency.stats latency

(* Cold lazy oracle and synchronous routing, each round on its own
   topology so that one run averages over several. Set-up builds the
   first round; each later one is built just before it, outside the
   timing, so the heap holds one topology at a time. *)
let static_lookup_setup ~scale ~seed ~rounds tr =
  let routers, n, per_round =
    match scale with Full -> (3000, 32768, 20000) | Small -> (256, 1024, 300)
  in
  let ops = rounds * per_round in
  let build k =
    static_round tr
      ~build_tr:(if k = 0 then tr else None)
      ~routers ~n ~per_round ~seed:(seed + (10 * k))
  in
  let next = ref (Some (build 0)) in
  fun () ->
    let op_ns = Array.make ops 0 and sim = Array.make ops 0.0 in
    let failed = ref 0 and hops = ref 0 in
    let before k = if k > 0 then next := Some (build k) in
    let round k =
      let run = Option.get !next in
      next := None;
      run ~first:(k * per_round) ~op_ns ~sim ~failed ~hops
    in
    let stats, round_ns, minor, major = timed ~before ~rounds round in
    let total f = Float.of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
    let hits = total (fun s -> s.Latency.hits) and misses = total (fun s -> s.Latency.misses) in
    {
      attempted = ops;
      failed = !failed;
      violations =
        (if !failed > 0 then
           [ Printf.sprintf "%d routes ended away from the responsible node" !failed ]
         else []);
      op_ns;
      round_ops = Array.make rounds per_round;
      round_ns;
      sim_p50 = percentile sim 50.0;
      sim_p95 = percentile sim 95.0;
      sim_p99 = percentile sim 99.0;
      counters = counters ();
      layer =
        [
          ("router.hops", Float.of_int !hops);
          ("latency.rows_computed", total (fun s -> s.Latency.rows_computed));
          ("latency.hit_ratio", hits /. (hits +. misses));
        ];
      gc_minor_words = minor;
      gc_major = major;
    }

(* --- faulty_kv -------------------------------------------------------- *)

type kv_op = Get of int * int | Put of int * int * string  (* client, key index[, value] *)

let replicas = 3

(* The message-level network and replicated storage over a warm oracle:
   a closed loop of gets and puts (about 4:1) from random live nodes,
   with 10% of nodes crashed and 1% of messages lost. *)
let faulty_kv_setup ~scale ~seed ~rounds tr =
  let n, keys, per_round = match scale with Full -> (8192, 2000, 5000) | Small -> (512, 64, 200) in
  let ops = rounds * per_round in
  let setup = warm_topology tr ~scale ~seed in
  let pop =
    span tr "population.attach" (fun () -> Common.topology_population ~seed:(seed + 1) setup ~n)
  in
  let rings = span tr "rings.build" (fun () -> Rings.build pop) in
  let overlay = span tr "overlay.build" (fun () -> Crescendo.build rings) in
  let base_latency = Common.node_latency setup pop in
  let node_latency = traced_latency tr base_latency in
  let rng = Rng.create (seed + 2) in
  let plan = Fault_plan.create ~loss:0.01 ~n () in
  Fault_plan.crash_random plan (Rng.split rng) ~fraction:0.1 ();
  let net = Net.create ~plan ~rings ~rng:(Rng.split rng) ~node_latency overlay in
  let store = Replicated_store.create ~net ~k:replicas ~spread:Replica_set.Sibling rings in
  let root = Domain_tree.root pop.Population.tree in
  let live =
    Array.of_list (List.filter (fun v -> not (Fault_plan.is_crashed plan v)) (List.init n Fun.id))
  in
  let key_ids =
    let seen = Hashtbl.create keys in
    Array.init keys (fun _ ->
        let rec fresh () =
          let k = Canon_idspace.Id.random rng in
          if Hashtbl.mem seen k then fresh ()
          else begin
            Hashtbl.replace seen k ();
            k
          end
        in
        fresh ())
  in
  (* The last acknowledged value of every key, as the client saw it. *)
  let expected = Array.make keys None in
  let put ~writer j value =
    let acks =
      Replicated_store.put store ~writer ~key:key_ids.(j) ~value ~storage_domain:root
    in
    if acks > 0 then expected.(j) <- Some value;
    acks
  in
  span tr "store.preload" (fun () ->
      Array.iteri
        (fun j _ -> ignore (put ~writer:(Rng.pick rng live) j (Printf.sprintf "k%d.preload" j)))
        key_ids);
  let plan_ops =
    Array.init ops (fun i ->
        let client = Rng.pick rng live and j = Rng.int_below rng keys in
        if Rng.float rng < 0.8 then Get (client, j) else Put (client, j, Printf.sprintf "k%d.%d" j i))
  in
  let n_op = nid tr "op" and n_get = nid tr "store.get" and n_put = nid tr "store.put" in
  let fidelity_rng = Rng.create (seed + 3) in
  fun () ->
    let op_ns = Array.make ops 0 in
    let failed = ref 0 and over_acked = ref 0 in
    let round k =
      for i = k * per_round to ((k + 1) * per_round) - 1 do
        let t0 = now_ns () in
        let o =
          match tr with
          | None -> 0
          | Some t ->
              Spans.set_op t i;
              Spans.enter t n_op
        in
        (match plan_ops.(i) with
        | Get (client, j) -> (
            let got =
              match tr with
              | None -> Replicated_store.get store ~querier:client ~key:key_ids.(j)
              | Some t ->
                  let s = Spans.enter t n_get in
                  let got = Replicated_store.get store ~querier:client ~key:key_ids.(j) in
                  Spans.leave t s;
                  got
            in
            match (got, expected.(j)) with
            | Some v, Some e when String.equal v e -> ()
            | _ -> incr failed)
        | Put (client, j, value) ->
            let acks =
              match tr with
              | None -> put ~writer:client j value
              | Some t ->
                  let s = Spans.enter t n_put in
                  let acks = put ~writer:client j value in
                  Spans.leave t s;
                  acks
            in
            if acks = 0 then incr failed;
            if acks > replicas then incr over_acked);
        (match tr with None -> () | Some t -> Spans.leave t o);
        op_ns.(i) <- now_ns () - t0
      done
    in
    let before = Latency.stats setup.Common.latency in
    let _, round_ns, minor, major = timed ~rounds round in
    let after = Latency.stats setup.Common.latency in
    let h = Metrics.histogram "net.delivered_latency_ms" in
    let sim_p50 = Metrics.percentile h 0.5 and sim_p95 = Metrics.percentile h 0.95 in
    let sim_p99 = Metrics.percentile h 0.99 in
    let counters = counters () in
    (* Untimed fidelity sample: on a fault-free network a lookup visits
       exactly the synchronous greedy path. The contract needs every hop
       to beat the RPC timeout, so the sample runs with a timeout above
       the overlay's longest link; how many links the default timeout
       does not cover is reported beside it. *)
    let longest = ref 0.0 and over_default = ref 0 in
    Overlay.iter_links overlay (fun u v ->
        let l = base_latency u v in
        longest := Float.max !longest l;
        if l >= Rpc.default.Rpc.timeout_ms then incr over_default);
    let policy =
      let timeout_ms = Float.max Rpc.default.Rpc.timeout_ms (2.0 *. !longest) in
      { Rpc.default with Rpc.timeout_ms; deadline_ms = 10.0 *. timeout_ms }
    in
    let clean = Net.create ~policy ~rng:(Rng.create (seed + 4)) ~node_latency:base_latency overlay in
    let unfaithful = ref 0 in
    for _ = 1 to 64 do
      let src = Rng.int_below fidelity_rng n and dst = Rng.int_below fidelity_rng n in
      let key = Overlay.id overlay dst in
      let r = Net.lookup clean ~src ~key in
      let sync = Router.greedy_clockwise overlay ~src ~key in
      if
        r.Async_route.status <> Async_route.Delivered
        || r.Async_route.route.Route.nodes <> sync.Route.nodes
      then incr unfaithful
    done;
    {
      attempted = ops;
      failed = !failed;
      violations =
        (if !over_acked > 0 then [ Printf.sprintf "%d puts got more than %d acks" !over_acked replicas ]
         else [])
        @
        if !unfaithful > 0 then
          [ Printf.sprintf "%d of 64 fault-free lookups left the greedy path" !unfaithful ]
        else [];
      op_ns;
      round_ops = Array.make rounds per_round;
      round_ns;
      sim_p50;
      sim_p95;
      sim_p99;
      counters;
      layer =
        ("net.links_over_timeout", Float.of_int !over_default) :: latency_layer before after;
      gc_minor_words = minor;
      gc_major = major;
    }

(* --- live_churn ------------------------------------------------------- *)

type payload = Membership of int * Churn.event | Launch of int | Rpc of int * Net.event

(* The live membership as a dense array with positions, updated from the
   churn hook in O(1) per join or leave. *)
type live_set = { members : int array; pos : int array; mutable count : int }

let live_add s v =
  if s.pos.(v) < 0 then begin
    s.members.(s.count) <- v;
    s.pos.(v) <- s.count;
    s.count <- s.count + 1
  end

let live_remove s v =
  let p = s.pos.(v) in
  if p >= 0 then begin
    let last = s.members.(s.count - 1) in
    s.members.(p) <- last;
    s.pos.(last) <- p;
    s.pos.(v) <- -1;
    s.count <- s.count - 1
  end

let churn_rate = 100.0 (* membership events per simulated second *)

let lookup_rate = 200.0 (* lookups per simulated second *)

(* What one churn epoch leaves behind for the result. *)
type epoch_stats = {
  e_failed : int;
  e_unresolved : int;
  e_abandoned : int;
  e_walls : float list;
  e_pushes : int;
  e_pops : int;
  e_depth_max : int;
  e_bumps : int;
  e_joins : int;
  e_join_msgs : float;
  e_leaves : int;
  e_leave_msgs : float;
}

(* One epoch: a fresh membership of 3/4 of the population, then
   [events] Poisson joins and leaves and [lookups] Poisson lookups
   (alternately over the Chord and the Crescendo live view), all
   pre-scheduled on one event queue. Returns the closure that drains
   the queue, attributing host time to ops [op_base ..]. [prepare_tr]
   records the membership build, which is set-up work. *)
let live_epoch tr ~prepare_tr ~pop ~node_latency ~seed ~events ~lookups =
  let n = Population.size pop in
  let live = { members = Array.make n 0; pos = Array.make n (-1); count = 0 } in
  let views = ref [] and bumps = ref 0 in
  let n_bump = nid tr "live_view.bump" in
  let on_event h =
    (match h with
    | Churn.Init a -> Array.iter (live_add live) a
    | Churn.Join v -> live_add live v
    | Churn.Leave v -> live_remove live v);
    List.iter
      (fun view ->
        incr bumps;
        match tr with
        | None -> Live_view.on_hook view h
        | Some t ->
            let s = Spans.enter t n_bump in
            Live_view.on_hook view h;
            Spans.leave t s)
      !views
  in
  let config =
    {
      Churn.initial_nodes = n * 3 / 4;
      events;
      join_fraction = 0.5;
      probes_per_event = 0;
      mean_interarrival = 1000.0 /. churn_rate;
    }
  in
  let driver, schedule =
    span prepare_tr "churn.prepare" (fun () -> Churn.prepare ~on_event (Rng.create seed) pop config)
  in
  let m = Churn.maintenance driver in
  let chord_view = Live_view.chord m and crescendo_view = Live_view.crescendo m in
  views := [ chord_view; crescendo_view ];
  let overlay = Maintenance.overlay m in
  let nets =
    [|
      Net.create ~live:chord_view ~rng:(Rng.create (seed + 1)) ~node_latency overlay;
      Net.create ~live:crescendo_view ~rng:(Rng.create (seed + 2)) ~node_latency overlay;
    |]
  in
  let q = Event_queue.create () in
  (* Interarrivals prefix-summed into sustained Poisson streams. *)
  let t = ref 0.0 in
  List.iteri
    (fun i (dt, ev) ->
      t := !t +. dt;
      Event_queue.push q ~time:!t (Membership (i, ev)))
    schedule;
  let rng = Rng.create (seed + 3) in
  let t = ref 0.0 in
  for i = 0 to lookups - 1 do
    t := !t +. Rng.exponential rng ~mean:(1000.0 /. lookup_rate);
    Event_queue.push q ~time:!t (Launch i)
  done;
  (* Endpoints are drawn now and mapped onto the membership of launch
     time: the live set is indexed by a pre-drawn uniform number. *)
  let pick_src = Array.init lookups (fun _ -> Rng.int_below rng (1 lsl 30)) in
  let pick_dst = Array.init lookups (fun _ -> Rng.int_below rng (1 lsl 30)) in
  let n_step = nid tr "sim.step" and n_pop = nid tr "event_queue.pop" in
  let n_push = nid tr "event_queue.push" and n_apply = nid tr "churn.apply" in
  let n_launch = nid tr "net.launch" and n_handle = nid tr "net.handle" in
  fun ~op_base ~op_ns ->
    let dsts = Array.make lookups (-1) in
    let pendings = Array.make lookups None in
    let cur = ref 0 and pushes = ref 0 and pops = ref 0 and depth_max = ref (Event_queue.size q) in
    let push =
      match tr with
      | None ->
          fun ~time ev ->
            incr pushes;
            Event_queue.push q ~time (Rpc (!cur, ev));
            depth_max := max !depth_max (Event_queue.size q)
      | Some t ->
          fun ~time ev ->
            incr pushes;
            let s = Spans.enter t n_push in
            Event_queue.push q ~time (Rpc (!cur, ev));
            Spans.leave t s;
            depth_max := max !depth_max (Event_queue.size q)
    in
    let next_event () =
      incr pops;
      match tr with
      | None -> Event_queue.pop q
      | Some t ->
          let s = Spans.enter t n_pop in
          let e = Event_queue.pop q in
          Spans.leave t s;
          e
    in
    let within name f = match tr with None -> f () | Some t -> Spans.with_span t name f in
    let last = ref 0.0 and continue = ref true in
    while !continue do
      let t0 = now_ns () in
      let step = match tr with None -> 0 | Some t -> Spans.enter t n_step in
      match next_event () with
      | None ->
          (match tr with None -> () | Some t -> Spans.leave t step);
          continue := false
      | Some (time, payload) ->
          last := time;
          let op =
            op_base + match payload with Membership (i, _) -> i | Launch i | Rpc (i, _) -> events + i
          in
          (match tr with None -> () | Some t -> Spans.retag t ~from:step op);
          (match payload with
          | Membership (_, ev) -> within n_apply (fun () -> Churn.apply driver ev)
          | Launch i ->
              let src = live.members.(pick_src.(i) mod live.count) in
              let dst = live.members.(pick_dst.(i) mod live.count) in
              dsts.(i) <- dst;
              cur := i;
              let p =
                within n_launch (fun () ->
                    Net.launch nets.(i land 1) ~now:time ~push ~src ~key:pop.Population.ids.(dst))
              in
              pendings.(i) <- Some p
          | Rpc (i, ev) ->
              cur := i;
              within n_handle (fun () -> Net.handle nets.(i land 1) ~now:time ~push ev));
          (match tr with None -> () | Some t -> Spans.leave t step);
          op_ns.(op) <- op_ns.(op) + (now_ns () - t0)
    done;
    let failed = ref 0 and unresolved = ref 0 and abandoned = ref 0 and walls = ref [] in
    Array.iteri
      (fun i -> function
        | None -> incr unresolved
        | Some p ->
            let r =
              match Net.result p with
              | Some r -> r
              | None ->
                  incr abandoned;
                  Net.abandon nets.(i land 1) p ~now:!last
            in
            if Async_route.delivered r && Route.destination r.Async_route.route = dsts.(i) then
              walls := r.Async_route.wall_ms :: !walls
            else incr failed)
      pendings;
    let joins = Churn.joins driver and leaves = Churn.leaves driver in
    {
      e_failed = !failed;
      e_unresolved = !unresolved;
      e_abandoned = !abandoned;
      e_walls = !walls;
      e_pushes = !pushes;
      e_pops = !pops;
      e_depth_max = !depth_max;
      e_bumps = !bumps;
      e_joins = joins;
      e_join_msgs = Churn.join_message_mean driver *. Float.of_int joins;
      e_leaves = leaves;
      e_leave_msgs = Churn.leave_message_mean driver *. Float.of_int leaves;
    }

(* Membership writes interleaved with lookups on one shared event queue,
   drained as fast as the host goes. The waiting room of joiners is a
   quarter of the population, so one epoch is capped at [epoch_events]
   membership events to keep joins and leaves balanced; longer runs are
   several independent epochs over the same topology, one per round.
   Set-up builds the first epoch; each later one is built just before
   its round, outside the timing, so the heap holds one epoch at a time
   and set-up does not grow with the run. *)
let live_churn_setup ~scale ~seed ~rounds tr =
  let n, epoch_events = match scale with Full -> (4096, 900) | Small -> (256, 90) in
  let epoch_ops = 3 * epoch_events in
  let epochs = rounds in
  let ops = epochs * epoch_ops in
  let setup = warm_topology tr ~scale ~seed in
  let pop =
    span tr "population.attach" (fun () -> Common.topology_population ~seed:(seed + 1) setup ~n)
  in
  let node_latency = traced_latency tr (Common.node_latency setup pop) in
  let epoch k =
    live_epoch tr
      ~prepare_tr:(if k = 0 then tr else None)
      ~pop ~node_latency ~seed:(seed + 2 + (10 * k)) ~events:epoch_events
      ~lookups:(2 * epoch_events)
  in
  let next = ref (Some (epoch 0)) in
  fun () ->
    let op_ns = Array.make ops 0 in
    let before = Latency.stats setup.Common.latency in
    let build k = if k > 0 then next := Some (epoch k) in
    let drain k =
      let run = Option.get !next in
      next := None;
      run ~op_base:(k * epoch_ops) ~op_ns
    in
    let stats, round_ns, minor, major = timed ~before:build ~rounds drain in
    let counters = counters () in
    let sum f = List.fold_left (fun acc e -> acc + f e) 0 stats in
    let sumf f = List.fold_left (fun acc e -> acc +. f e) 0.0 stats in
    let mean total count = if count = 0 then 0.0 else total /. Float.of_int count in
    let walls = Array.of_list (List.concat_map (fun e -> e.e_walls) stats) in
    let unresolved = sum (fun e -> e.e_unresolved) in
    {
      attempted = ops;
      failed = sum (fun e -> e.e_failed);
      violations =
        (if unresolved > 0 then [ Printf.sprintf "%d lookups were never launched" unresolved ]
         else []);
      op_ns;
      round_ops = Array.make rounds epoch_ops;
      round_ns;
      sim_p50 = percentile walls 50.0;
      sim_p95 = percentile walls 95.0;
      sim_p99 = percentile walls 99.0;
      counters;
      layer =
        latency_layer before (Latency.stats setup.Common.latency)
        @ [
          ("churn.events", Float.of_int (epochs * epoch_events));
          ( "maintenance.join_msgs_mean",
            mean (sumf (fun e -> e.e_join_msgs)) (sum (fun e -> e.e_joins)) );
          ( "maintenance.leave_msgs_mean",
            mean (sumf (fun e -> e.e_leave_msgs)) (sum (fun e -> e.e_leaves)) );
          ("event_queue.pushes", Float.of_int (sum (fun e -> e.e_pushes)));
          ("event_queue.pops", Float.of_int (sum (fun e -> e.e_pops)));
          ("event_queue.depth_max", Float.of_int (List.fold_left (fun a e -> max a e.e_depth_max) 0 stats));
          ("live_view.bumps", Float.of_int (sum (fun e -> e.e_bumps)));
          ("live_churn.abandoned", Float.of_int (sum (fun e -> e.e_abandoned)));
        ];
      gc_minor_words = minor;
      gc_major = major;
    }

let all =
  [
    { name = "static_lookup"; setup = static_lookup_setup };
    { name = "faulty_kv"; setup = faulty_kv_setup };
    { name = "live_churn"; setup = live_churn_setup };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
