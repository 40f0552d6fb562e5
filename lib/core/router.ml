open Canon_idspace
open Canon_overlay
module Span = Canon_telemetry.Span
module Trace = Canon_telemetry.Trace

exception Stuck of { at : int; key : Id.t; hops : int; path : int array }

type step_outcome = Forward of int | Arrived | Blocked

type step = { outcome : step_outcome; fault_free : int option }

let step_clockwise_avoiding_generic ~id ~links ~dead ~at:u ~key =
  let id_u = id u in
  let du = Id.distance id_u key in
  if du = 0 then { outcome = Arrived; fault_free = None }
  else begin
    (* One pass over [u]'s links keeps two running minima of the
       remaining distance among no-overshoot links (for those,
       distance(v, key) = du - distance(u, v)): over the live links, and
       over all links as if nothing were dead. Both use a strict [<], so
       each keeps the first link of its minimum, exactly as two separate
       passes would. *)
    let best = ref (-1) and best_remaining = ref du in
    let free = ref (-1) and free_remaining = ref du in
    let dead_useful = ref false in
    Array.iter
      (fun v ->
        let d = Id.distance id_u (id v) in
        if d <= du then begin
          let remaining = du - d in
          if remaining < !free_remaining then begin
            free := v;
            free_remaining := remaining
          end;
          if dead v then dead_useful := true
          else if remaining < !best_remaining then begin
            best := v;
            best_remaining := remaining
          end
        end)
      (links u);
    (* Blocked, not arrived: a dead link of [u] would have made
       progress, so a live owner closer to the key may exist but [u]
       cannot see it. *)
    let outcome =
      if !best >= 0 then Forward !best else if !dead_useful then Blocked else Arrived
    in
    { outcome; fault_free = (if !free >= 0 then Some !free else None) }
  end

(* The sorted step's search: the index in [row] (links ascending by
   clockwise distance from [id_u]) of the last link at distance <= du,
   the no-overshoot link closest to the key; -1 when there is none. *)
let last_within ids (row : int array) ~id_u ~du =
  let a = ref 0 and b = ref (Array.length row) in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if Id.distance id_u ids.(row.(mid)) <= du then a := mid + 1 else b := mid
  done;
  !a - 1

let step_clockwise overlay ~dead ~at ~key =
  (* Distances in a row are distinct and non-zero, so the last link
     within reach is the fault-free hop, and links below it make less
     progress: the first live one going down is the hop avoiding
     [dead]. *)
  let ids = (Overlay.population overlay).Population.ids and row = Overlay.links overlay at in
  let id_u = ids.(at) in
  let last = last_within ids row ~id_u ~du:(Id.distance id_u key) in
  if last < 0 then { outcome = Arrived; fault_free = None }
  else begin
    let j = ref last in
    while !j >= 0 && dead row.(!j) do
      decr j
    done;
    { outcome = (if !j >= 0 then Forward row.(!j) else Blocked); fault_free = Some row.(last) }
  end

(* The single hop loop. A generous hop budget: any genuine route is
   O(log n); if we exceed the node count something is structurally
   wrong. [record] sees every finished walk — its span outcome and the
   visited path — before it returns or raises. *)
let drive ~record ~n ~src ~key step =
  let max_hops = n + 1 in
  let path u acc = Array.of_list (List.rev (u :: acc)) in
  let rec go u acc hops =
    match step u with
    | Forward v ->
        if hops >= max_hops then begin
          let path = path u acc in
          record Span.Stuck path;
          raise (Stuck { at = u; key; hops; path })
        end;
        go v (u :: acc) (hops + 1)
    | Arrived ->
        let nodes = path u acc in
        record Span.Arrived nodes;
        Ok Route.{ nodes }
    | Blocked ->
        let nodes = path u acc in
        record Span.Stranded nodes;
        Error Route.{ nodes }
  in
  go src [] 0

let untraced _ _ = ()

let walk ~n ~src ~key step = drive ~record:untraced ~n ~src ~key step

(* Where tracing happens: one span per walk, offered to [trace]. *)
let recorder trace ~kind ~key ~level =
  match trace with
  | None -> untraced
  | Some tr -> fun outcome nodes -> Trace.record tr ~kind ~key ~outcome ~nodes ~level ()

(* Engines whose step never blocks: the walk always arrives or raises. *)
let route = function Ok route -> route | Error _ -> assert false

(* An engine over a frozen overlay: its size bounds the hop budget and
   its population gives traced spans their link levels. *)
let on_overlay ~trace ~kind overlay ~src ~key step =
  drive
    ~record:(recorder trace ~kind ~key ~level:(Population.link_level (Overlay.population overlay)))
    ~n:(Overlay.size overlay) ~src ~key step

let never _ = false

let greedy_clockwise_generic ?trace ?(level = fun _ _ -> 0) ~n ~id ~links ~src ~key () =
  route
    (drive
       ~record:(recorder trace ~kind:"greedy_clockwise_generic" ~key ~level)
       ~n ~src ~key
       (fun u -> (step_clockwise_avoiding_generic ~id ~links ~dead:never ~at:u ~key).outcome))

let greedy_clockwise ?trace overlay ~src ~key =
  route
    (on_overlay ~trace ~kind:"greedy_clockwise" overlay ~src ~key (fun u ->
         (step_clockwise overlay ~dead:never ~at:u ~key).outcome))

let greedy_clockwise_lookahead ?trace overlay ~src ~key =
  let step u =
    let du = Id.distance (Overlay.id overlay u) key in
    if du = 0 then Arrived
    else begin
      (* Score of standing at [w]: remaining clockwise distance to the
         key. A first hop [v] is scored by the best reachable remaining
         distance among [v] itself and [v]'s no-overshoot neighbours. *)
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
            let s = score v in
            let progress = du - remaining v in
            if s < !best_score || (s = !best_score && progress > !best_progress) then begin
              best := v;
              best_score := s;
              best_progress := progress
            end
          end)
        (Overlay.links overlay u);
      if !best < 0 then Arrived else Forward !best
    end
  in
  route (on_overlay ~trace ~kind:"greedy_clockwise_lookahead" overlay ~src ~key step)

let greedy_xor ?trace overlay ~src ~key =
  let step u =
    let du = Id.xor_distance (Overlay.id overlay u) key in
    if du = 0 then Arrived
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
      if !best < 0 then Arrived else Forward !best
    end
  in
  route (on_overlay ~trace ~kind:"greedy_xor" overlay ~src ~key step)

(* Unlike the infallible engines this one must distinguish "arrived at
   the key's live predecessor among reachable nodes" from "stranded":
   the step's own outcome tells the two apart. *)
let greedy_clockwise_avoiding ?trace overlay ~dead ~src ~key =
  if dead src then invalid_arg "Router.greedy_clockwise_avoiding: dead source";
  match
    on_overlay ~trace ~kind:"greedy_clockwise_avoiding" overlay ~src ~key
      (fun u -> (step_clockwise overlay ~dead ~at:u ~key).outcome)
  with
  | Ok route -> Some route
  | Error _ -> None
