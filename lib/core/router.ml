open Canon_idspace
open Canon_overlay
module Span = Canon_telemetry.Span
module Trace = Canon_telemetry.Trace

exception Stuck of { at : int; key : Id.t; hops : int; path : int array }

type step_outcome = Forward of int | Arrived | Blocked

type step = { outcome : step_outcome; fault_free : int option }

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

let step_clockwise ~ids ~row ~dead ~at ~key =
  (* Distances in a row are distinct and non-zero, so the last link
     within reach is the fault-free hop, and links below it make less
     progress: the first live one going down is the hop avoiding
     [dead]. *)
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

(* The one hop loop, and the one place tracing is decided: a walk reads
   the ambient trace once, before its first step, and offers it one span
   — the outcome and the visited path — before it returns or raises. A
   generous hop budget: any genuine route is O(log n); if we exceed the
   node count something is structurally wrong. *)
let walk ~kind ~level ~n ~src ~key step =
  let record =
    match Trace.ambient () with
    | None -> fun _ _ -> ()
    | Some tr -> fun outcome nodes -> Trace.record tr ~kind ~key ~outcome ~nodes ~level ()
  in
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

(* A route that must arrive: a walk that ends [Blocked] raises [Stuck]
   with its path, after its [Stranded] span. *)
let route ~kind ~level ~n ~src ~key step =
  match walk ~kind ~level ~n ~src ~key step with
  | Ok route -> route
  | Error { Route.nodes } ->
      let hops = Array.length nodes - 1 in
      raise (Stuck { at = nodes.(hops); key; hops; path = nodes })

(* An engine over a frozen overlay: its size bounds the hop budget and
   its population gives traced spans their link levels. *)
let on_overlay run ~kind overlay ~src ~key step =
  run ~kind
    ~level:(Population.link_level (Overlay.population overlay))
    ~n:(Overlay.size overlay) ~src ~key step

let never _ = false

let greedy_clockwise_generic ~level ~n ~ids ~links ~src ~key =
  route ~kind:"greedy_clockwise_generic" ~level ~n ~src ~key (fun u ->
      (step_clockwise ~ids ~row:(links u) ~dead:never ~at:u ~key).outcome)

let greedy_clockwise overlay ~src ~key =
  let ids = (Overlay.population overlay).Population.ids in
  on_overlay route ~kind:"greedy_clockwise" overlay ~src ~key (fun u ->
      (step_clockwise ~ids ~row:(Overlay.links overlay u) ~dead:never ~at:u ~key).outcome)

let greedy_clockwise_lookahead overlay ~src ~key =
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
  on_overlay route ~kind:"greedy_clockwise_lookahead" overlay ~src ~key step

let greedy_xor overlay ~src ~key =
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
  on_overlay route ~kind:"greedy_xor" overlay ~src ~key step

(* Unlike the infallible engines this one must distinguish "arrived at
   the key's live predecessor among reachable nodes" from "stranded":
   the step's own outcome tells the two apart. *)
let greedy_clockwise_avoiding overlay ~dead ~src ~key =
  if dead src then invalid_arg "Router.greedy_clockwise_avoiding: dead source";
  let ids = (Overlay.population overlay).Population.ids in
  match
    on_overlay walk ~kind:"greedy_clockwise_avoiding" overlay ~src ~key
      (fun u -> (step_clockwise ~ids ~row:(Overlay.links overlay u) ~dead ~at:u ~key).outcome)
  with
  | Ok route -> Some route
  | Error _ -> None
