open Canon_hierarchy
open Canon_overlay
open Canon_sim
open Canon_net
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table
module Stats = Canon_stats.Stats
module Metrics = Canon_telemetry.Metrics

(* Everything — membership events, lookup launches, RPC hops — lives on
   one Event_queue, so a lookup can watch its next hop leave (or a
   better successor join) before its own timeout fires. *)
type payload =
  | Membership of Churn.event
  | Launch of int
  | Rpc_event of Net.event

let m_events = Metrics.counter "churn_async.membership_events"

let m_launches = Metrics.counter "churn_async.lookups_launched"

let g_horizon = Metrics.gauge "churn_async.horizon_ms"

type phase_result = { ok : float; p50 : float; p99 : float }

(* One merged-queue run: a churn burst (or none) interleaved with
   [lookups] asynchronous lookups over live membership. [chord] selects
   the flat-Chord live link view instead of maintained Crescendo;
   [can_churn] restricts which nodes may join/leave; [restrict] narrows
   the probe candidates (e.g. to one domain's members). Seeds are
   per-concern so the membership trajectory and the probe pairs are
   identical across the two constructions. *)
let run_phase ~chord ~pop ~node_latency ~config ~can_churn ~restrict ~lookups
    ~lookup_spacing_ms ~seed =
  let view_ref = ref None in
  let on_event h = match !view_ref with None -> () | Some v -> Live_view.on_hook v h in
  let driver, schedule = Churn.prepare ~on_event ~can_churn (Rng.create (seed + 101)) pop config in
  let m = Churn.maintenance driver in
  let view = if chord then Live_view.chord m else Live_view.crescendo m in
  view_ref := Some view;
  let overlay = Maintenance.overlay m in
  let net = Net.create ~live:view ~rng:(Rng.create (seed + 202)) ~node_latency overlay in
  let q = Event_queue.create () in
  (* The prepared interarrivals, prefix-summed into a sustained Poisson
     stream of membership events (Churn.apply never reads timestamps). *)
  let churn_end = ref 0.0 in
  List.iter
    (fun (dt, ev) ->
      churn_end := !churn_end +. dt;
      Event_queue.push q ~time:!churn_end (Membership ev))
    schedule;
  let launch_times = Array.make lookups 0.0 in
  let lk_rng = Rng.create (seed + 303) in
  let tl = ref 0.0 in
  for i = 0 to lookups - 1 do
    tl := !tl +. Rng.exponential lk_rng ~mean:lookup_spacing_ms;
    launch_times.(i) <- !tl;
    Event_queue.push q ~time:!tl (Launch i)
  done;
  let pick_rng = Rng.create (seed + 404) in
  let candidates =
    match restrict with Some a -> a | None -> Array.init (Population.size pop) Fun.id
  in
  let dsts = Array.make lookups (-1) in
  let pendings = Array.make lookups None in
  let push ~time ev = Event_queue.push q ~time (Rpc_event ev) in
  let last = ref 0.0 in
  while not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q in
    last := time;
    match Event_queue.take q with
    | Membership ev ->
        Churn.apply driver ev;
        Metrics.incr m_events
    | Launch i ->
        let live =
          Array.of_list
            (List.filter (Live_view.is_live view) (Array.to_list candidates))
        in
        if Array.length live >= 2 then begin
          let src = Rng.pick pick_rng live and dst = Rng.pick pick_rng live in
          dsts.(i) <- dst;
          Metrics.incr m_launches;
          pendings.(i) <-
            Some (Net.launch net ~now:time ~push ~src ~key:pop.Population.ids.(dst))
        end
    | Rpc_event ev -> Net.handle net ~now:time ~push ev
  done;
  Metrics.set g_horizon !last;
  let launched = ref 0 and ok = ref 0 and walls = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some p ->
          incr launched;
          let r =
            match Net.result p with Some r -> r | None -> Net.abandon net p ~now:!last
          in
          if Async_route.delivered r && Route.destination r.Async_route.route = dsts.(i)
          then begin
            incr ok;
            walls := r.Async_route.wall_ms :: !walls
          end)
    pendings;
  let walls = Array.of_list !walls in
  {
    ok = (if !launched = 0 then 0.0 else Float.of_int !ok /. Float.of_int !launched);
    p50 = (if Array.length walls = 0 then 0.0 else Stats.percentile walls 50.0);
    p99 = (if Array.length walls = 0 then 0.0 else Stats.percentile walls 99.0);
  }

let run_with ?(churn_rate = 100.0) ?(lookup_rate = 200.0) ?events ?n ?lookups ~scale
    ~seed () =
  (* A rate becomes a mean spacing of 1000 / rate ms: both must be finite. *)
  let check_rate what r =
    if r <= 0.0 then invalid_arg ("Churn_async.run_with: " ^ what ^ " <= 0");
    if not (Float.is_finite r && Float.is_finite (1000.0 /. r)) then
      invalid_arg ("Churn_async.run_with: " ^ what ^ " not finite")
  in
  check_rate "churn_rate" churn_rate;
  check_rate "lookup_rate" lookup_rate;
  let n =
    match (n, scale) with Some n, _ -> n | None, `Paper -> 4096 | None, `Quick -> 1024
  in
  if n < 16 then invalid_arg "Churn_async.run_with: n < 16";
  let events =
    match (events, scale) with
    | Some e, _ -> e
    | None, `Paper -> 400
    | None, `Quick -> 120
  in
  if events < 0 then invalid_arg "Churn_async.run_with: events < 0";
  let lookups =
    match (lookups, scale) with
    | Some l, _ -> l
    | None, `Paper -> 800
    | None, `Quick -> 200
  in
  if lookups < 1 then invalid_arg "Churn_async.run_with: lookups < 1";
  let setup = Common.topology_setup ~seed in
  let pop = Common.topology_population ~seed setup ~n in
  let node_latency = Common.node_latency setup pop in
  let initial = n * 3 / 4 in
  let config =
    {
      Churn.initial_nodes = initial;
      events;
      join_fraction = 0.5;
      probes_per_event = 0;
      mean_interarrival = 1000.0 /. churn_rate;
    }
  in
  let quiescent = { config with Churn.events = 0 } in
  let lookup_spacing_ms = 1000.0 /. lookup_rate in
  (* The observed domain of the containment phase: the largest depth-1
     domain, protected from churn while the rest of the network churns
     (as in the robustness experiment). *)
  let rings = Rings.build pop in
  let domain =
    let kids = Domain_tree.children setup.Common.tree (Domain_tree.root setup.Common.tree) in
    let best = ref kids.(0) and best_size = ref 0 in
    Array.iter
      (fun d ->
        let s = Ring.size (Rings.ring rings d) in
        if s > !best_size then begin
          best := d;
          best_size := s
        end)
      kids;
    !best
  in
  let members = Ring.members (Rings.ring rings domain) in
  let inside = Array.make n false in
  Array.iter (fun v -> inside.(v) <- true) members;
  let everyone _ = true in
  let phase ~chord ~config ~can_churn ~restrict =
    run_phase ~chord ~pop ~node_latency ~config ~can_churn ~restrict ~lookups
      ~lookup_spacing_ms ~seed
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Churn x async: lookups during live churn (n = %d, initial = %d, %d events @ \
            %g/s, %d lookups @ %g/s, domain of %d nodes)"
           n initial events churn_rate lookups lookup_rate (Array.length members))
      ~columns:
        [ "phase"; "Chord ok"; "Cresc ok"; "Chord p50"; "Cresc p50"; "Chord p99"; "Cresc p99" ]
  in
  let row label ~config ~can_churn ~restrict =
    let c = phase ~chord:true ~config ~can_churn ~restrict in
    let g = phase ~chord:false ~config ~can_churn ~restrict in
    Table.add_float_row table label [ c.ok; g.ok; c.p50; g.p50; c.p99; g.p99 ]
  in
  row "quiescent" ~config:quiescent ~can_churn:everyone ~restrict:None;
  row "burst" ~config ~can_churn:everyone ~restrict:None;
  row "burst-intra" ~config
    ~can_churn:(fun v -> not inside.(v))
    ~restrict:(Some members);
  table

let run ~scale ~seed = run_with ~scale ~seed ()
