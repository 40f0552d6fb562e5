open Canon_idspace
open Canon_hierarchy
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
  (* Reverse adjacency: the nodes linking to v are the first
     [in_count.(v)] entries of [in_links.(v)], unordered. A node never
     appears twice, since it holds each link once. *)
  in_links : int array array;
  in_count : int array;
  visited : int array; (* per node: the last event that looked at it *)
  mutable event : int;
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

let add_in_link t v node =
  let count = t.in_count.(v) in
  if count = Array.length t.in_links.(v) then begin
    let grown = Array.make (max 8 (2 * count)) 0 in
    Array.blit t.in_links.(v) 0 grown 0 count;
    t.in_links.(v) <- grown
  end;
  t.in_links.(v).(count) <- node;
  t.in_count.(v) <- count + 1

let remove_in_link t v node =
  let holders = t.in_links.(v) and last = t.in_count.(v) - 1 in
  let rec find i =
    if i <= last then
      if holders.(i) = node then begin
        holders.(i) <- holders.(last);
        t.in_count.(v) <- last
      end
      else find (i + 1)
  in
  find 0

(* Only the links that actually come or go touch the reverse index: a
   refreshed node typically swaps one target out of ~20. *)
let set_links t node new_links =
  let old = t.links.(node) in
  Array.iter (fun v -> if not (mem_link v new_links) then remove_in_link t v node) old;
  Array.iter (fun v -> if not (mem_link v old) then add_in_link t v node) new_links;
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
      in_links = Array.make n [||];
      in_count = Array.make n 0;
      visited = Array.make n 0;
      event = 0;
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

(* --- the distance-band patch --------------------------------------- *)

(* Condition (b) makes [y]'s links whose LCA with [y] is a domain D
   exactly the Chord fingers of D's ring closer than a cap: [y]'s
   successor distance in its child domain under D, or the whole space
   when D is [y]'s leaf. In the canonical order (leaf level first, then
   clockwise distance) each level's run of fingers is therefore a
   distance band, strictly closer than every run before it. *)

(* The cap on [y]'s links whose LCA with [y] is its ancestor at depth
   [depth]: its successor distance in its domain one level deeper, or
   the whole space when its leaf sits at [depth]. *)
let cap_below t y ~depth =
  let tree = t.pop.Population.tree in
  let leaf = t.pop.Population.leaf_of_node.(y) in
  if Domain_tree.depth tree leaf = depth then Id.space
  else
    let child = Domain_tree.ancestor_at_depth tree leaf (depth + 1) in
    Ring.successor_distance (Rings.ring t.rings child) t.pop.Population.ids.(y)

(* Some power of two in (a, b], for 0 <= a < b: the highest one at most
   [b] exceeds [a]. A member at distance b whose ring predecessor sits
   at distance a is a Chord finger exactly then. *)
let power_of_two_between a b = 1 lsl Id.log2_floor b > a

(* [m] has just joined the ring where it is [y]'s LCA, between [p] and
   [next], at distance [d] < [cap] from [y], with a power of two in
   (d(y,p), d]: a new finger. It goes into its level's run in distance
   order. [next] was the finger just after it and stays one only if a
   power of two lies in (d, d(y,next)]. When [m] is [y]'s new successor
   ([p] = y), every shallower level is capped at [d]: the links at a
   distance in [d, d(y,next)) -- closer than the run's old successor,
   so on shallower levels -- go, except links to crashed nodes, which
   keep [y] stale until [repair]. *)
let patch_join t y ~m ~d ~cap ~p ~next =
  let ids = t.pop.Population.ids in
  let id_y = ids.(y) in
  let old = t.links.(y) in
  let len = Array.length old in
  let dist i = Id.distance id_y ids.(old.(i)) in
  let rec run_start i = if i < len && dist i >= cap then run_start (i + 1) else i in
  let start = run_start 0 in
  (* Unless [m] is the new successor, the run opens on the successor,
     its closest member, and shallower runs are closer still. *)
  let pos =
    if p = y || start = len then start
    else
      let succ = dist start in
      let rec after i = if i < len && dist i < d && dist i >= succ then after (i + 1) else i in
      after start
  in
  let d_next = if next = y then Id.space else Id.distance id_y ids.(next) in
  (* On a stale [y] the slot after [m] may hold a crashed node instead. *)
  let drop_next =
    next <> y && d_next < cap && (not (power_of_two_between d d_next)) && pos < len
    && old.(pos) = next
  in
  let out = Array.make (len + 1) m in
  Array.blit old 0 out 0 pos;
  let n = ref (pos + 1) in
  for i = pos to len - 1 do
    let v = old.(i) in
    if (i = pos && drop_next) || (p = y && d <= dist i && dist i < d_next && t.present.(v)) then
      remove_in_link t v y
    else begin
      out.(!n) <- v;
      incr n
    end
  done;
  add_in_link t m y;
  t.links.(y) <- (if !n = len + 1 then out else Array.sub out 0 !n)

(* [m] has left the ring where it was [y]'s LCA, so [next] now follows
   [m]'s predecessor there: [next] takes [m]'s place in the run unless
   it is [y] itself, lies at or beyond [cap], or is a finger already. *)
let patch_leave t y ~m ~next ~cap =
  let ids = t.pop.Population.ids in
  let old = t.links.(y) in
  let takes_over =
    next <> y && Id.distance ids.(y) ids.(next) < cap && not (mem_link next old)
  in
  t.links.(y) <-
    (if takes_over then begin
       add_in_link t next y;
       Array.map (fun v -> if v = m then next else v) old
     end
     else begin
       let out = Array.make (Array.length old - 1) 0 in
       let n = ref 0 in
       Array.iter
         (fun v ->
           if v <> m then begin
             out.(!n) <- v;
             incr n
           end)
         old;
       out
     end)

let join t m =
  let n = Population.size t.pop in
  if m < 0 || m >= n then invalid_arg "Maintenance.join: node out of range";
  if t.present.(m) then invalid_arg "Maintenance.join: already present";
  if t.in_count.(m) > 0 then
    invalid_arg "Maintenance.join: crashed node not yet repaired";
  let ids = t.pop.Population.ids in
  let id_m = ids.(m) in
  let chain = Rings.chain t.rings m in
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
      None chain
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
            ~id:(fun v -> ids.(v))
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
  (* Nodes that may now finger m: per ring of m's chain, the members y
     with d(y,p) < 2^k <= d(y,m) for m's predecessor p and some k, i.e.
     d(y,p) in [max 0 (2^k - d(p,m)), 2^k). The arcs below 2^k =
     d(p,m)'s highest bit nest inside that one. A y changes only if m
     lies within its cap for the ring: that holds in the ring of y's
     LCA with m alone, since in a shallower ring y's child domain holds
     m and so caps y below d(y,m). *)
  t.event <- t.event + 1;
  let notify_messages = ref 0 in
  Array.iter
    (fun domain ->
      let ring = Rings.ring t.rings domain in
      let size = Ring.size ring in
      if size >= 2 then begin
        let p = Ring.predecessor_of_id ring (Id.add id_m (-1)) in
        let next = Ring.successor_of_id ring id_m in
        let id_p = ids.(p) in
        let d_pm = Id.distance id_p id_m in
        let depth = Domain_tree.depth t.pop.Population.tree domain in
        let visit y =
          if y <> m && t.visited.(y) <> t.event then begin
            t.visited.(y) <- t.event;
            let d = Id.distance ids.(y) id_m and cap = cap_below t y ~depth in
            if d < cap then begin
              patch_join t y ~m ~d ~cap ~p ~next;
              incr notify_messages
            end
          end
        in
        for k = Id.log2_floor d_pm to Id.bits - 1 do
          let hi = 1 lsl k in
          let lo = max 0 (hi - d_pm) in
          let first = Ring.rank_at_or_after ring (Id.add id_p (1 - hi)) in
          let rec walk i =
            if i < size then begin
              let y = Ring.node_at ring ((first + i) mod size) in
              let back = Id.distance ids.(y) id_p in
              if back >= lo && back < hi then begin
                visit y;
                walk (i + 1)
              end
            end
          in
          walk 0
        done
      end)
    chain;
  let stats =
    { routing_messages; link_messages = Array.length my_links; notify_messages = !notify_messages }
  in
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
  Array.iteri (fun v present -> if not present then t.in_count.(v) <- 0) t.present;
  let stats =
    { routing_messages = 0; link_messages = !link_messages; notify_messages = Array.length stale }
  in
  if Array.length stale > 0 then
    Metrics.observe repair_messages_hist
      (Float.of_int (total stats) /. Float.of_int (Array.length stale));
  stats

let leave t m =
  if not t.present.(m) then invalid_arg "Maintenance.leave: node not present";
  let ids = t.pop.Population.ids in
  let id_m = ids.(m) in
  let chain = Rings.chain t.rings m in
  let holders = Array.sub t.in_links.(m) 0 t.in_count.(m) in
  let link_messages = Array.length t.links.(m) in
  Rings.remove_node t.rings m;
  t.present.(m) <- false;
  t.live <- t.live - 1;
  set_links t m [||];
  t.event <- t.event + 1;
  let notify_messages = ref 0 in
  (* m's ring predecessors: their caps widen, so the links of every
     shallower level may grow. At most one per level; recomputed. *)
  Array.iter
    (fun domain ->
      let ring = Rings.ring t.rings domain in
      if Ring.size ring > 0 then begin
        let p = Ring.predecessor_of_id ring id_m in
        if t.visited.(p) <> t.event then begin
          t.visited.(p) <- t.event;
          let fresh = Crescendo.links_of_node t.rings p in
          if fresh <> t.links.(p) then begin
            set_links t p fresh;
            incr notify_messages
          end
        end
      end)
    chain;
  (* Every other node that linked to m loses exactly that link, and may
     inherit m's ring successor in its LCA ring with m. *)
  let leaf_depth = Array.length chain - 1 in
  Array.iter
    (fun y ->
      if t.visited.(y) <> t.event then begin
        let depth = Population.link_level t.pop y m in
        let next = Ring.successor_of_id (Rings.ring t.rings chain.(leaf_depth - depth)) id_m in
        patch_leave t y ~m ~next ~cap:(cap_below t y ~depth);
        incr notify_messages
      end)
    holders;
  t.in_count.(m) <- 0;
  { routing_messages = 0; link_messages; notify_messages = !notify_messages }
