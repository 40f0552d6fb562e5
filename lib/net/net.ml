open Canon_idspace
open Canon_overlay
open Canon_core
open Canon_sim
module Rng = Canon_rng.Rng
module Metrics = Canon_telemetry.Metrics
module Trace = Canon_telemetry.Trace
module Span = Canon_telemetry.Span

type lookup_state = {
  mutable rev_path : int list;
  mutable hops : int;
  mutable messages : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable losses : int;
  mutable reanchors : int;
  mutable deviated : bool;
  mutable newly_suspected : int list;
  mutable finished : (Async_route.status * Async_route.failure option) option;
}

type pending = {
  p_key : Id.t;
  p_started : float;
  p_st : lookup_state;
  p_on_done : (Async_route.t -> unit) option;
  mutable p_result : Async_route.t option;
}

type msg = {
  lk : pending;
  from_ : int;
  to_ : int;
  attempt : int;
  mutable got_through : bool;
}

type event = Send of msg | Deliver of msg | Timeout of msg

type t = {
  overlay : Overlay.t;
  node_latency : int -> int -> float;
  plan : Fault_plan.t;
  policy : Rpc.policy;
  rng : Rng.t;
  rings : Rings.t option;
  live : Live_view.t option;
  suspected : bool array;
  leaf_cache : int array array option array;
  mutable leaf_cache_gen : int;
  queue : event Event_queue.t;  (* [lookup]'s, empty between calls *)
}

(* Process-wide telemetry, bound once (see Metrics). *)
let m_lookups = Metrics.counter "net.lookups"
let m_messages = Metrics.counter "net.messages"
let m_retries = Metrics.counter "net.retries"
let m_timeouts = Metrics.counter "net.timeouts"
let m_losses = Metrics.counter "net.losses"
let m_reanchors = Metrics.counter "net.reanchors"
let m_delivered = Metrics.counter "net.delivered"
let m_rerouted = Metrics.counter "net.rerouted"
let m_failed = Metrics.counter "net.failed"
let m_deadline = Metrics.counter "net.deadline_exceeded"
let h_wall = Metrics.histogram "net.delivered_latency_ms"

let h_messages =
  Metrics.histogram
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
    "net.messages_per_lookup"

(* Successors per level in a leaf set. *)
let leaf_width = 4

let create ?(policy = Rpc.default) ?plan ?rings ?live ~rng ~node_latency overlay =
  Rpc.validate policy;
  let n = Overlay.size overlay in
  let plan = match plan with Some p -> p | None -> Fault_plan.none ~n in
  if Fault_plan.size plan <> n then invalid_arg "Net.create: plan/overlay size mismatch";
  (match rings with
  | Some r when Rings.population r != Overlay.population overlay ->
      invalid_arg "Net.create: rings built over a different population"
  | Some _ | None -> ());
  (match live with
  | Some lv when Live_view.population lv != Overlay.population overlay ->
      invalid_arg "Net.create: live view over a different population"
  | Some _ | None -> ());
  {
    overlay;
    node_latency;
    plan;
    policy;
    rng;
    rings;
    live;
    suspected = Array.make n false;
    leaf_cache = Array.make n None;
    leaf_cache_gen = 0;
    queue = Event_queue.create ();
  }

let population t = Overlay.population t.overlay

let plan t = t.plan

(* Membership and link state the routing rule consults: the frozen
   overlay snapshot by default, the live view when one is installed. *)
let node_live t v = match t.live with None -> true | Some lv -> Live_view.is_live lv v

let node_links t v =
  match t.live with None -> Overlay.links t.overlay v | Some lv -> Live_view.links lv v

let suspected_nodes t =
  let out = ref [] in
  for v = Array.length t.suspected - 1 downto 0 do
    if t.suspected.(v) then out := v :: !out
  done;
  Array.of_list !out

(* Leaf sets come from the live view's rings when there is one, else
   from [?rings], and are cached per generation: a frozen net's never
   changes. *)
let leaf_sets t u =
  let rings, gen =
    match t.live with
    | Some lv -> (Some (Live_view.rings lv), Live_view.generation lv)
    | None -> (t.rings, 0)
  in
  match rings with
  | None -> [||]
  | Some rings -> (
      if gen <> t.leaf_cache_gen then begin
        Array.fill t.leaf_cache 0 (Array.length t.leaf_cache) None;
        t.leaf_cache_gen <- gen
      end;
      match t.leaf_cache.(u) with
      | Some sets -> sets
      | None ->
          let sets = Leaf_sets.successors rings ~node:u ~width:leaf_width in
          t.leaf_cache.(u) <- Some sets;
          sets)

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

(* --- one lookup ---------------------------------------------------- *)

let result p = p.p_result

let finalize t p ~now =
  let st = p.p_st in
  List.iter (fun v -> t.suspected.(v) <- false) st.newly_suspected;
  st.newly_suspected <- [];
  let status, failure =
    match st.finished with
    | Some (s, f) -> (s, f)
    | None -> (Async_route.Failed, Some Async_route.No_candidate)
  in
  let route = Route.{ nodes = Array.of_list (List.rev st.rev_path) } in
  let wall_ms = Float.min (now -. p.p_started) t.policy.Rpc.deadline_ms in
  Metrics.observe h_messages (Float.of_int (max 1 st.messages));
  (match status with
  | Async_route.Delivered ->
      Metrics.incr m_delivered;
      Metrics.observe h_wall wall_ms
  | Async_route.Rerouted ->
      Metrics.incr m_rerouted;
      Metrics.observe h_wall wall_ms
  | Async_route.Failed -> Metrics.incr m_failed);
  (match Trace.ambient () with
  | None -> ()
  | Some tr ->
      let outcome =
        match status with
        | Async_route.Delivered | Async_route.Rerouted -> Span.Arrived
        | Async_route.Failed -> Span.Stranded
      in
      Trace.record tr ~kind:"canon_net.lookup" ~key:p.p_key ~outcome ~nodes:route.Route.nodes
        ~level:(Population.link_level (Overlay.population t.overlay)) ~latency:t.node_latency ());
  let r =
    Async_route.
      {
        status;
        failure;
        route;
        wall_ms;
        messages = st.messages;
        retries = st.retries;
        timeouts = st.timeouts;
        losses = st.losses;
        reanchors = st.reanchors;
      }
  in
  p.p_result <- Some r;
  match p.p_on_done with None -> () | Some f -> f r

let finish t p ~now ?failure status =
  if p.p_st.finished = None then begin
    p.p_st.finished <- Some (status, failure);
    finalize t p ~now
  end

let transmit t ~now ~push m =
  let st = m.lk.p_st in
  st.messages <- st.messages + 1;
  Metrics.incr m_messages;
  let lost = Fault_plan.draw_lost t.plan t.rng in
  if lost then begin
    st.losses <- st.losses + 1;
    Metrics.incr m_losses
  end;
  let lat = t.node_latency m.from_ m.to_ in
  (* A message lost, aimed at a crashed node, or slower than the
     timeout never completes its hop; the sender finds out at the
     timeout. Deliver is pushed before Timeout so a latency exactly at
     the timeout still wins the FIFO tie. Departure of the target while
     the message is in flight is checked at delivery time instead, since
     it may happen after this moment. *)
  let delivered =
    (not lost)
    && (not (Fault_plan.is_crashed t.plan m.to_))
    && lat <= t.policy.Rpc.timeout_ms
  in
  if delivered then push ~time:(now +. lat) (Deliver m);
  (* On a frozen net a delivered message sets [got_through] before its
     timer pops, so a timer within the deadline would be a no-op and is
     not scheduled. Past the deadline it is the event that fails the
     lookup, and in live mode the target may still depart in flight:
     both keep it. The test mirrors [handle]'s deadline check exactly. *)
  let expiry = now +. t.policy.Rpc.timeout_ms in
  if
    (not delivered)
    || Option.is_some t.live
    || expiry -. m.lk.p_started > t.policy.Rpc.deadline_ms
  then push ~time:expiry (Timeout m)

let forward t p ~now ~push u v =
  transmit t ~now ~push { lk = p; from_ = u; to_ = v; attempt = 0; got_through = false }

(* What the node holding the message does next, given its current
   knowledge of suspects and the membership of this moment: one binary
   search over the holder's links, which frozen and live rows alike
   keep sorted clockwise. *)
let step_at t p ~now ~push u =
  let st = p.p_st in
  let step =
    Router.step_clockwise ~ids:(Overlay.population t.overlay).Population.ids
      ~row:(node_links t u) ~dead:(fun v -> t.suspected.(v)) ~at:u ~key:p.p_key
  in
  match step.Router.outcome with
  | Router.Forward v ->
      (* A hop off the fault-free router's choice makes the lookup a
         detour. *)
      (match step.Router.fault_free with Some w when w = v -> () | _ -> st.deviated <- true);
      forward t p ~now ~push u v
  | Router.Arrived -> finish t p ~now (if st.deviated then Rerouted else Delivered)
  | Router.Blocked -> (
      match reanchor_candidate t ~at:u ~key:p.p_key with
      | Some v ->
          st.reanchors <- st.reanchors + 1;
          Metrics.incr m_reanchors;
          st.deviated <- true;
          forward t p ~now ~push u v
      | None -> finish t p ~now Failed ~failure:Async_route.No_candidate)

let launch ?on_done t ~now ~push ~src ~key =
  if Fault_plan.is_crashed t.plan src then invalid_arg "Net.lookup: crashed source";
  if not (node_live t src) then invalid_arg "Net.lookup: source not live";
  Metrics.incr m_lookups;
  let st =
    {
      rev_path = [ src ];
      hops = 0;
      messages = 0;
      retries = 0;
      timeouts = 0;
      losses = 0;
      reanchors = 0;
      deviated = false;
      newly_suspected = [];
      finished = None;
    }
  in
  let p = { p_key = key; p_started = now; p_st = st; p_on_done = on_done; p_result = None } in
  step_at t p ~now ~push src;
  p

let handle t ~now ~push ev =
  let m = match ev with Send m | Deliver m | Timeout m -> m in
  let p = m.lk in
  let st = p.p_st in
  if st.finished = None then begin
    if now -. p.p_started > t.policy.Rpc.deadline_ms then begin
      (* This event lies past the lookup's deadline: the caller has
         already given up. *)
      Metrics.incr m_deadline;
      finish t p ~now Async_route.Failed ~failure:Async_route.Deadline
    end
    else
      let max_hops = Overlay.size t.overlay + 1 in
      match ev with
      | Send m -> transmit t ~now ~push m
      | Deliver m ->
          (* A target that left while the hop was in flight never
             receives it; the sender finds out at the timeout. *)
          if node_live t m.to_ then begin
            m.got_through <- true;
            st.rev_path <- m.to_ :: st.rev_path;
            st.hops <- st.hops + 1;
            if st.hops > max_hops then finish t p ~now Failed ~failure:Async_route.Hop_budget
            else step_at t p ~now ~push m.to_
          end
      | Timeout m ->
          if not m.got_through then begin
            st.timeouts <- st.timeouts + 1;
            Metrics.incr m_timeouts;
            if m.attempt < t.policy.Rpc.max_retries then begin
              st.retries <- st.retries + 1;
              Metrics.incr m_retries;
              let retry = m.attempt + 1 in
              let delay = Rpc.backoff_ms t.policy ~retry t.rng in
              push ~time:(now +. delay) (Send { m with attempt = retry; got_through = false })
            end
            else begin
              (* Retry budget exhausted: declare the target dead and let
                 the sender route around it (or re-anchor). The forced
                 detour counts as a deviation even when the live link
                 state has already forgotten the departed target. *)
              st.deviated <- true;
              if not t.suspected.(m.to_) then begin
                t.suspected.(m.to_) <- true;
                st.newly_suspected <- m.to_ :: st.newly_suspected
              end;
              if node_live t m.from_ then step_at t p ~now ~push m.from_
              else
                (* The holder itself left while waiting on the RPC: the
                   message dies with it. *)
                finish t p ~now Failed ~failure:Async_route.No_candidate
            end
          end
  end

let abandon t p ~now =
  finish t p ~now Async_route.Failed ~failure:Async_route.No_candidate;
  match p.p_result with Some r -> r | None -> assert false

let lookup t ~src ~key =
  let q = t.queue in
  Event_queue.clear q;
  let push ~time ev = Event_queue.push q ~time ev in
  let p = launch t ~now:0.0 ~push ~src ~key in
  let last = ref 0.0 in
  while Option.is_none p.p_result && not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q in
    last := time;
    handle t ~now:time ~push (Event_queue.take q)
  done;
  Event_queue.clear q;
  match p.p_result with Some r -> r | None -> abandon t p ~now:!last
