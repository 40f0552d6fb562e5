open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng
module Metrics = Canon_telemetry.Metrics

let joins_counter = Metrics.counter "sim.joins"

let leaves_counter = Metrics.counter "sim.leaves"

let probes_counter = Metrics.counter "sim.probes"

let failed_probes_counter = Metrics.counter "sim.failed_probes"

let probe_hops_hist = Metrics.histogram "sim.probe_hops"

type config = {
  initial_nodes : int;
  events : int;
  join_fraction : float;
  probes_per_event : int;
  mean_interarrival : float;
}

type report = {
  joins : int;
  leaves : int;
  probes : int;
  failed_probes : int;
  join_message_mean : float;
  leave_message_mean : float;
  final_population : int;
  sim_time : float;
}

type event =
  | Arrival
  | Departure

type hook =
  | Init of int array
  | Join of int
  | Leave of int

type driver = {
  d_config : config;
  d_rng : Rng.t;
  d_m : Maintenance.t;
  d_live : Order_set.t; (* present nodes *)
  d_pool : Order_set.t; (* present nodes that may leave *)
  d_on_event : hook -> unit;
  mutable d_waiting : int list;
  mutable d_joins : int;
  mutable d_leaves : int;
  mutable d_join_msgs : int;
  mutable d_leave_msgs : int;
}

(* RNG draw order is part of the determinism contract: shuffle, then one
   (interarrival, kind) pair per scheduled event — all drawn before the
   clock starts — and finally one pick per executed departure. [run]
   reproduces the historical stream exactly through this split. *)

(* The member [Rng.pick] would choose from the set listed in decreasing
   order (the order of [Maintenance.present]), with the same single
   draw, in O(log n). *)
let pick_descending rng set =
  let count = Order_set.count set in
  Order_set.nth set (count - 1 - Rng.int_below rng count)

let prepare ?(on_event = fun (_ : hook) -> ()) ?(can_churn = fun (_ : int) -> true) rng pop config
    =
  let n = Population.size pop in
  if config.initial_nodes > n then invalid_arg "Churn.prepare: initial_nodes exceeds population";
  let order = Array.init n Fun.id in
  Rng.shuffle_in_place rng order;
  let initial = Array.sub order 0 config.initial_nodes in
  let m = Maintenance.create pop ~present:initial in
  let live = Order_set.create n and pool = Order_set.create n in
  Array.iter
    (fun node ->
      Order_set.add live node;
      if can_churn node then Order_set.add pool node)
    initial;
  on_event (Init (Array.copy initial));
  (* Waiting room of nodes that may still join, in shuffled order. *)
  let waiting =
    List.filter can_churn
      (Array.to_list (Array.sub order config.initial_nodes (n - config.initial_nodes)))
  in
  let schedule = ref [] in
  for _ = 1 to config.events do
    let dt = Rng.exponential rng ~mean:config.mean_interarrival in
    let kind = if Rng.float rng < config.join_fraction then Arrival else Departure in
    schedule := (dt, kind) :: !schedule
  done;
  let driver =
    {
      d_config = config;
      d_rng = rng;
      d_m = m;
      d_live = live;
      d_pool = pool;
      d_on_event = on_event;
      d_waiting = waiting;
      d_joins = 0;
      d_leaves = 0;
      d_join_msgs = 0;
      d_leave_msgs = 0;
    }
  in
  (driver, List.rev !schedule)

let apply d kind =
  match kind with
  | Arrival -> (
      match d.d_waiting with
      | [] -> ()
      | node :: rest ->
          d.d_waiting <- rest;
          let stats = Maintenance.join d.d_m node in
          Order_set.add d.d_live node;
          (* The waiting room holds [can_churn] nodes only. *)
          Order_set.add d.d_pool node;
          d.d_join_msgs <- d.d_join_msgs + Maintenance.total stats;
          d.d_joins <- d.d_joins + 1;
          Metrics.incr joins_counter;
          d.d_on_event (Join node))
  | Departure ->
      (* Keep a quorum so probes stay meaningful. *)
      if
        Maintenance.count d.d_m > max 8 (d.d_config.initial_nodes / 4)
        && Order_set.count d.d_pool > 0
      then begin
        let node = pick_descending d.d_rng d.d_pool in
        let stats = Maintenance.leave d.d_m node in
        Order_set.remove d.d_live node;
        Order_set.remove d.d_pool node;
        d.d_leave_msgs <- d.d_leave_msgs + Maintenance.total stats;
        d.d_leaves <- d.d_leaves + 1;
        Metrics.incr leaves_counter;
        d.d_on_event (Leave node)
      end

let maintenance d = d.d_m

let joins d = d.d_joins

let leaves d = d.d_leaves

let join_message_mean d =
  if d.d_joins = 0 then 0.0 else Float.of_int d.d_join_msgs /. Float.of_int d.d_joins

let leave_message_mean d =
  if d.d_leaves = 0 then 0.0 else Float.of_int d.d_leave_msgs /. Float.of_int d.d_leaves

let run ?on_event rng pop config =
  let n = Population.size pop in
  let d, schedule = prepare ?on_event rng pop config in
  let m = d.d_m in
  let queue = Event_queue.create () in
  (* [prepare] draws every interarrival relative to time 0, matching the
     historical scheduling loop; push order fixes the FIFO tie-break. *)
  List.iter (fun (dt, kind) -> Event_queue.push queue ~time:dt kind) schedule;
  let clock = ref 0.0 in
  let probes = ref 0 and failed = ref 0 in
  let probe () =
    if Maintenance.count m >= 2 then begin
      incr probes;
      Metrics.incr probes_counter;
      let src = pick_descending rng d.d_live and dst = pick_descending rng d.d_live in
      let route =
        Router.greedy_clockwise_generic ~level:(Population.link_level pop) ~n
          ~ids:pop.Population.ids
          ~links:(fun v -> if Maintenance.is_present m v then Maintenance.links m v else [||])
          ~src ~key:pop.Population.ids.(dst)
      in
      Metrics.observe probe_hops_hist (Float.of_int (Canon_overlay.Route.hops route));
      if Canon_overlay.Route.destination route <> dst then begin
        incr failed;
        Metrics.incr failed_probes_counter
      end
    end
  in
  while not (Event_queue.is_empty queue) do
    clock := Event_queue.min_time queue;
    apply d (Event_queue.take queue);
    for _ = 1 to config.probes_per_event do
      probe ()
    done
  done;
  {
    joins = d.d_joins;
    leaves = d.d_leaves;
    probes = !probes;
    failed_probes = !failed;
    join_message_mean = join_message_mean d;
    leave_message_mean = leave_message_mean d;
    final_population = Maintenance.count m;
    sim_time = !clock;
  }
