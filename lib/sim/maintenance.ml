open Canon_idspace
open Canon_overlay
open Canon_core
module Metrics = Canon_telemetry.Metrics

(* Message-cost histograms: the simulator's time unit is messages, so
   these are the "repair latency" of the maintenance protocol. *)
let join_messages_hist = Metrics.histogram "sim.join_messages"

let repair_messages_hist = Metrics.histogram "sim.repair_messages_per_node"

type t = {
  pop : Population.t;
  rings : Rings.t;
  present : bool array;
  mutable live : int; (* number of [true] entries of [present] *)
  links : int array array;
  in_links : (int, unit) Hashtbl.t array; (* reverse adjacency *)
}

type stats = {
  routing_messages : int;
  link_messages : int;
  notify_messages : int;
}

let total s = s.routing_messages + s.link_messages + s.notify_messages

let mem_link (v : int) links =
  let rec from i = i < Array.length links && (links.(i) = v || from (i + 1)) in
  from 0

(* Only the links that actually come or go touch the reverse index: a
   refreshed node typically swaps one target out of ~20. *)
let set_links t node new_links =
  let old = t.links.(node) in
  Array.iter (fun v -> if not (mem_link v new_links) then Hashtbl.remove t.in_links.(v) node) old;
  Array.iter (fun v -> if not (mem_link v old) then Hashtbl.replace t.in_links.(v) node ()) new_links;
  t.links.(node) <- new_links

let create pop ~present =
  let n = Population.size pop in
  let rings = Rings.build_partial pop ~present in
  let t =
    {
      pop;
      rings;
      present = Array.make n false;
      live = Array.length present;
      links = Array.make n [||];
      in_links = Array.init n (fun _ -> Hashtbl.create 8);
    }
  in
  Array.iter (fun node -> t.present.(node) <- true) present;
  Array.iter (fun node -> set_links t node (Crescendo.links_of_node rings node)) present;
  t

let present t =
  let out = ref [] in
  Array.iteri (fun node p -> if p then out := node :: !out) t.present;
  Array.of_list !out

let count t = t.live

let is_present t node = t.present.(node)

let links t node =
  if not t.present.(node) then invalid_arg "Maintenance.links: node not present";
  t.links.(node)

let rings t = t.rings

let overlay t = Overlay.create t.pop ~links:(Array.map Array.copy t.links)

(* Recompute the links of every candidate; count those that changed.
   [Crescendo.links_of_node] returns a link set in one canonical order,
   so equal sets are equal arrays. *)
let refresh_candidates t candidates =
  let changed = ref 0 in
  Hashtbl.iter
    (fun node () ->
      if t.present.(node) then begin
        let fresh = Crescendo.links_of_node t.rings node in
        if fresh <> t.links.(node) then begin
          set_links t node fresh;
          incr changed
        end
      end)
    candidates;
  !changed

(* Nodes whose Chord-rule finger may now target [m]: per shared ring,
   members at clockwise distance delta before m's ring predecessor p
   with delta in [max(0, 2^k - d(p,m)), 2^k), for each k. *)
let finger_candidates t m ~into =
  let id_m = t.pop.Population.ids.(m) in
  Array.iter
    (fun domain ->
      let ring = Rings.ring t.rings domain in
      if Ring.size ring >= 2 then begin
        let p = Ring.predecessor_of_id ring (Id.add id_m (-1)) in
        if p <> m then begin
          let id_p = t.pop.Population.ids.(p) in
          let d_pm = Id.distance id_p id_m in
          for k = 0 to Id.bits - 1 do
            let hi = 1 lsl k in
            let lo = max 0 (hi - d_pm) in
            let len = hi - lo in
            if len > 0 then begin
              let start = Id.add id_p (-(hi - 1)) in
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
  if m < 0 || m >= n then invalid_arg "Maintenance.join: node out of range";
  if t.present.(m) then invalid_arg "Maintenance.join: already present";
  let id_m = t.pop.Population.ids.(m) in
  (* Bootstrap: a live node in the lowest non-empty domain of m's chain
     (paper: the new node knows an existing node of its lowest-level
     domain, or failing that of the lowest enclosing domain with any
     node). Routing a lookup for m's own identifier visits the
     predecessor of m at every level. *)
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
        let route =
          Router.greedy_clockwise_generic
            ?trace:(Canon_telemetry.Trace.ambient ())
            ~level:(Population.link_level t.pop)
            ~n
            ~id:(fun v -> t.pop.Population.ids.(v))
            ~links:(fun v -> t.links.(v))
            ~src:b ~key:id_m ()
        in
        Route.hops route
  in
  Rings.add_node t.rings m;
  t.present.(m) <- true;
  t.live <- t.live + 1;
  let my_links = Crescendo.links_of_node t.rings m in
  set_links t m my_links;
  let candidates = Hashtbl.create 64 in
  finger_candidates t m ~into:candidates;
  let notify_messages = refresh_candidates t candidates in
  let stats = { routing_messages; link_messages = Array.length my_links; notify_messages } in
  Metrics.observe join_messages_hist (Float.of_int (total stats));
  stats

let crash t m =
  if not t.present.(m) then invalid_arg "Maintenance.crash: node not present";
  (* The corpse's outgoing links die with it, but nobody is told:
     in-links from live nodes stay stale until [repair]. *)
  Rings.remove_node t.rings m;
  t.present.(m) <- false;
  t.live <- t.live - 1;
  set_links t m [||]
(* note: in_links OF m are deliberately kept — they are the stale links *)

let stale_nodes t =
  let stale = Hashtbl.create 64 in
  Array.iteri
    (fun node links ->
      if t.present.(node) then
        Array.iter (fun v -> if not t.present.(v) then Hashtbl.replace stale node ()) links)
    t.links;
  Array.of_seq (Hashtbl.to_seq_keys stale)

let repair t =
  let stale = stale_nodes t in
  let link_messages = ref 0 in
  Array.iter
    (fun node ->
      let fresh = Crescendo.links_of_node t.rings node in
      link_messages := !link_messages + Array.length fresh;
      set_links t node fresh)
    stale;
  (* Clear dangling reverse entries of crashed nodes. *)
  Array.iteri (fun v present -> if not present then Hashtbl.reset t.in_links.(v)) t.present;
  let stats =
    { routing_messages = 0; link_messages = !link_messages; notify_messages = Array.length stale }
  in
  if Array.length stale > 0 then
    Metrics.observe repair_messages_hist
      (Float.of_int (total stats) /. Float.of_int (Array.length stale));
  stats

let leave t m =
  if not t.present.(m) then invalid_arg "Maintenance.leave: node not present";
  let candidates = Hashtbl.create 64 in
  (* Nodes pointing at m must re-target; per-ring predecessors may gain
     links as their distance caps widen. *)
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
  t.live <- t.live - 1;
  set_links t m [||];
  let notify_messages = refresh_candidates t candidates in
  { routing_messages = 0; link_messages; notify_messages }
