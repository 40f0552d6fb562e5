open Canon_idspace
open Canon_hierarchy
open Canon_overlay
module Span = Canon_telemetry.Span
module Trace = Canon_telemetry.Trace

exception Stuck of { at : int; key : Id.t; hops : int; path : int array }

(* A generous hop budget: any genuine route is O(log n); if we exceed
   the node count something is structurally wrong. *)
let budget overlay = Overlay.size overlay + 1

let stuck u acc key hops =
  Stuck { at = u; key; hops; path = Array.of_list (List.rev (u :: acc)) }

(* Hierarchy level of a link: depth of the lowest common ancestor
   domain of its endpoints — 0 for a top-level link, deeper is more
   local. This is the level a span records for each hop. *)
let level_of_edge overlay =
  let pop = Overlay.population overlay in
  let tree = pop.Population.tree in
  fun u v -> Domain_tree.depth tree (Population.lca_of_nodes pop u v)

(* Run one routing thunk under a trace: emit an Arrived span for the
   returned route, or a Stuck span for the partial path before
   re-raising. Engines only call this on the [Some trace] branch, so
   the untraced path pays one match and nothing else. *)
let traced tr ~kind ~key ~level run =
  match run () with
  | route ->
      Trace.record tr ~kind ~key ~outcome:Span.Arrived ~nodes:route.Route.nodes ~level ();
      route
  | exception (Stuck { path; _ } as e) ->
      Trace.record tr ~kind ~key ~outcome:Span.Stuck ~nodes:path ~level ();
      raise e

let collect overlay src step key =
  let max_hops = budget overlay in
  let rec go u acc hops =
    match step u with
    | None -> Route.{ nodes = Array.of_list (List.rev (u :: acc)) }
    | Some v ->
        if hops >= max_hops then raise (stuck u acc key hops);
        go v (u :: acc) (hops + 1)
  in
  go src [] 0

let collect_generic ~n src step key =
  let max_hops = n + 1 in
  let rec go u acc hops =
    match step u with
    | None -> Route.{ nodes = Array.of_list (List.rev (u :: acc)) }
    | Some v ->
        if hops >= max_hops then raise (stuck u acc key hops);
        go v (u :: acc) (hops + 1)
  in
  go src [] 0

let greedy_clockwise_generic ?trace ?(level = fun _ _ -> 0) ~n ~id ~links ~src ~key () =
  let step u =
    let du = Id.distance (id u) key in
    if du = 0 then None
    else begin
      (* Largest clockwise progress that does not overshoot the key:
         maximize distance(u, v) subject to distance(u, v) <= du,
         equivalently minimize distance(v, key). *)
      let best = ref (-1) and best_remaining = ref du in
      Array.iter
        (fun v ->
          let remaining = Id.distance (id v) key in
          if Id.distance (id u) (id v) <= du && remaining < !best_remaining then begin
            best := v;
            best_remaining := remaining
          end)
        (links u);
      if !best < 0 then None else Some !best
    end
  in
  match trace with
  | None -> collect_generic ~n src step key
  | Some tr ->
      traced tr ~kind:"greedy_clockwise_generic" ~key ~level (fun () ->
          collect_generic ~n src step key)

let greedy_clockwise ?trace overlay ~src ~key =
  match trace with
  | None ->
      greedy_clockwise_generic ~n:(Overlay.size overlay)
        ~id:(Overlay.id overlay)
        ~links:(Overlay.links overlay)
        ~src ~key ()
  | Some tr ->
      traced tr ~kind:"greedy_clockwise" ~key ~level:(level_of_edge overlay) (fun () ->
          greedy_clockwise_generic ~n:(Overlay.size overlay)
            ~id:(Overlay.id overlay)
            ~links:(Overlay.links overlay)
            ~src ~key ())

let greedy_clockwise_lookahead ?trace overlay ~src ~key =
  let step u =
    let du = Id.distance (Overlay.id overlay u) key in
    if du = 0 then None
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
      if !best < 0 then None else Some !best
    end
  in
  match trace with
  | None -> collect overlay src step key
  | Some tr ->
      traced tr ~kind:"greedy_clockwise_lookahead" ~key ~level:(level_of_edge overlay)
        (fun () -> collect overlay src step key)

let greedy_xor ?trace overlay ~src ~key =
  let step u =
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
  in
  match trace with
  | None -> collect overlay src step key
  | Some tr ->
      traced tr ~kind:"greedy_xor" ~key ~level:(level_of_edge overlay) (fun () ->
          collect overlay src step key)

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

let step_clockwise_avoiding overlay ~dead ~at ~key =
  step_clockwise_avoiding_generic
    ~id:(fun v -> Overlay.id overlay v)
    ~links:(fun v -> Overlay.links overlay v)
    ~dead ~at ~key

let greedy_clockwise_avoiding ?trace overlay ~dead ~src ~key =
  if dead src then invalid_arg "Router.greedy_clockwise_avoiding: dead source";
  let max_hops = budget overlay in
  let record outcome nodes =
    match trace with
    | None -> ()
    | Some tr ->
        Trace.record tr ~kind:"greedy_clockwise_avoiding" ~key ~outcome ~nodes
          ~level:(level_of_edge overlay) ()
  in
  (* Unlike the infallible engines we must distinguish "arrived at the
     key's live predecessor among reachable nodes" from "stranded": the
     step's own outcome tells the two apart. *)
  let rec go u acc hops =
    match (step_clockwise_avoiding overlay ~dead ~at:u ~key).outcome with
    | Forward v ->
        if hops >= max_hops then begin
          let path = Array.of_list (List.rev (u :: acc)) in
          record Span.Stuck path;
          raise (Stuck { at = u; key; hops; path })
        end;
        go v (u :: acc) (hops + 1)
    | Blocked ->
        record Span.Stranded (Array.of_list (List.rev (u :: acc)));
        None
    | Arrived ->
        let nodes = Array.of_list (List.rev (u :: acc)) in
        record Span.Arrived nodes;
        Some Route.{ nodes }
  in
  go src [] 0
