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
    }
  in
  Array.iter (fun node -> t.present.(node) <- true) present;
  let initial = Crescendo.rows rings in
  Array.iter (fun node -> set_links t node initial.(node)) present;
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

(* Rows are sorted, so [Overlay.create] leaves them as they are, and
   they are never written in place: a patch makes a new row. *)
let overlay t = Overlay.create t.pop ~links:(Array.copy t.links)

(* --- the distance-band patch --------------------------------------- *)

(* Condition (b) makes [y]'s links whose LCA with [y] is a domain D
   exactly the Chord fingers of D's ring closer than a cap: [y]'s
   successor distance in its child domain under D, or the whole space
   when D is [y]'s leaf. Each level's fingers are therefore a distance
   band, strictly closer than every band below it, and [y]'s row,
   sorted by clockwise distance, is the bands root first. *)

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
   [b], 2^k for b's top bit k, exceeds [a], i.e. bit k of [a] is clear
   (a has no higher bit). Then [a lxor b] keeps bit k and exceeds [a];
   otherwise it clears bit k and falls below [a]. A member at distance
   b whose ring predecessor sits at distance a is a Chord finger exactly
   then. *)
let power_of_two_between a b = a lxor b > a

(* [y]'s row rewritten in one pass: the links [keep] accepts, given
   each with its distance, merged with the first [len] of [adds] --
   nearest first, none of them in the row -- so the row stays
   clockwise. *)
let rewrite t y ~adds ~len ~keep =
  let ids = t.pop.Population.ids in
  let id_y = ids.(y) and old = t.links.(y) in
  let out = Array.make (Array.length old + len) 0 in
  let n = ref 0 and i = ref 0 in
  let push v =
    out.(!n) <- v;
    incr n
  in
  let d_add () = if !i < len then Id.distance id_y ids.(adds.(!i)) else Id.space in
  let next_add = ref (d_add ()) in
  Array.iter
    (fun v ->
      let d = Id.distance id_y ids.(v) in
      while !next_add < d do
        push adds.(!i);
        incr i;
        next_add := d_add ()
      done;
      if keep v d then push v)
    old;
  for j = !i to len - 1 do
    push adds.(j)
  done;
  t.links.(y) <- (if !n = Array.length out then out else Array.sub out 0 !n)

(* [m] has just joined the ring where it is [y]'s LCA, between [p] and
   [next], at distance [d] < [cap] from [y], with a power of two in
   (d(y,p), d]: a new finger, which goes in at its distance. [next] was
   a finger and stays one only if a power of two lies in
   (d, d(y,next)]. When [m] is [y]'s new successor ([p] = y), every
   shallower band is capped at [d]: the links at a distance in
   [d, d(y,next)) -- closer than the band's old successor, so on
   shallower levels -- go, except links to crashed nodes, which keep
   [y] stale until [repair]. *)
let patch_join t y ~m ~d ~cap ~p ~next =
  let ids = t.pop.Population.ids in
  let d_next = if next = y then Id.space else Id.distance ids.(y) ids.(next) in
  let drop_next = next <> y && d_next < cap && not (power_of_two_between d d_next) in
  let keep v dv =
    let drop = (v = next && drop_next) || (p = y && d < dv && dv < d_next && t.present.(v)) in
    if drop then remove_in_link t v y;
    not drop
  in
  add_in_link t m y;
  rewrite t y ~adds:[| m |] ~len:1 ~keep

(* [m] has left the ring where it was [y]'s LCA, so [next] now follows
   [m]'s predecessor there: [m]'s link goes, and [next] comes in at its
   distance unless it is [y] itself, lies at or beyond [cap], or is a
   finger already. On a stale [y] a link to a crashed node may lie
   between the two, so [next] does not simply take [m]'s slot. *)
let patch_leave t y ~m ~next ~cap =
  let ids = t.pop.Population.ids in
  let d_next = Id.distance ids.(y) ids.(next) in
  let takes_over = next <> y && d_next < cap && not (mem_link next t.links.(y)) in
  if takes_over then add_in_link t next y;
  rewrite t y ~adds:[| next |] ~len:(if takes_over then 1 else 0) ~keep:(fun v _ -> v <> m)

(* [m] has left, and [p] preceded it in the rings of depths [l] to [h]
   ([ring_at k]), [h] that of their LCA, so m's successor at depth k,
   [succ.(k)], is now p's. At each of those depths p's successor
   distance grows from d(p,m) to its new gap, and so does the cap of
   the level above: each level in [max 0 (l-1), h-1] gains its
   ring's fingers of p in [d(p,m), gap below it). At depth [h], m's link
   goes and m's successor there comes in unless it is [p] or lies at
   or beyond the cap. The gains arrive nearest first; those not yet
   links are merged into the row by distance, since on a stale [p] a
   link to a crashed node may lie among them. True iff the row
   changed. *)
let patch_predecessor t p ~m ~ring_at ~succ ~l ~h =
  let ids = t.pop.Population.ids in
  let id_p = ids.(p) and old = t.links.(p) in
  let from = Id.distance id_p ids.(m) in
  let gap k = if succ.(k) = p then Id.space else Id.distance id_p ids.(succ.(k)) in
  let gains = Array.make (Id.bits + h + 2) 0 in
  let len = ref 0 in
  for j = max 0 (l - 1) to h - 1 do
    len := Chord.add_fingers_between (ring_at j) id_p ~self:p ~from ~below:(gap (j + 1)) gains !len
  done;
  if succ.(h) <> p && gap h < cap_below t p ~depth:h then begin
    gains.(!len) <- succ.(h);
    incr len
  end;
  let fresh = ref 0 in
  for i = 0 to !len - 1 do
    let v = gains.(i) in
    if not (mem_link v old) then begin
      add_in_link t v p;
      gains.(!fresh) <- v;
      incr fresh
    end
  done;
  let changed = !fresh > 0 || mem_link m old in
  if changed then rewrite t p ~adds:gains ~len:!fresh ~keep:(fun v _ -> v <> m);
  changed

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
          Router.greedy_clockwise_generic ~level:(Population.link_level t.pop) ~n ~ids
            ~links:(fun v -> t.links.(v))
            ~src:b ~key:id_m
        in
        Route.hops route
  in
  Rings.add_node t.rings m;
  t.present.(m) <- true;
  t.live <- t.live + 1;
  let my_links = Crescendo.links_of_node t.rings m in
  set_links t m my_links;
  (* Nodes that may now finger m, per ring D of m's chain, with [next]
     m's successor there: before m joined, a y that now takes m as a
     finger of D's level pointed that finger at [next], so y holds
     [next] -- at D's level, or, when its cap stopped it there, one
     level deeper as [next]'s predecessor. The one exception is [next]
     itself, whose finger wrapped round to it. A y changes only if m
     lies within its cap for the ring: that holds in the ring of y's
     LCA with m alone, since in a shallower ring y's child domain holds
     m and so caps y below d(y,m). So the candidates are [next] and its
     in-link holders whose LCA with m is D, and a candidate gets m iff
     some power of two lies in (d(y,p), d(y,m)] for m's predecessor p,
     and d(y,m) is below its cap. *)
  let tree = t.pop.Population.tree in
  let notify_messages = ref 0 in
  Array.iter
    (fun domain ->
      let ring = Rings.ring t.rings domain in
      if Ring.size ring >= 2 then begin
        let p = Ring.predecessor_of_id ring (Id.add id_m (-1)) in
        let next = Ring.successor_of_id ring id_m in
        let id_p = ids.(p) in
        let depth = Domain_tree.depth tree domain in
        (* The cheapest test first; for a y outside D's ring it may
           pass, but the LCA test then fails. *)
        let consider y =
          let d = Id.distance ids.(y) id_m in
          if
            y <> m
            && power_of_two_between (Id.distance ids.(y) id_p) d
            && Population.link_level t.pop y m = depth
          then begin
            let cap = cap_below t y ~depth in
            if d < cap then begin
              patch_join t y ~m ~d ~cap ~p ~next;
              incr notify_messages
            end
          end
        in
        consider next;
        (* [patch_join] may swap-remove y from [next]'s holders, moving
           the last one, already considered, into its slot. *)
        let holders = t.in_links.(next) in
        for i = t.in_count.(next) - 1 downto 0 do
          consider holders.(i)
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
  let stale node =
    t.present.(node) && Array.exists (fun v -> not t.present.(v)) t.links.(node)
  in
  Array.of_seq (Seq.filter stale (Seq.init (Array.length t.links) Fun.id))

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
  let notify_messages = ref 0 in
  (* m's ring predecessors, leaf first ([-1] for the deepest rings,
     now empty): each is met first in the ring of its LCA with m, then
     in every shallower ring where it still precedes m. *)
  let leaf_depth = Array.length chain - 1 in
  let ring_at k = Rings.ring t.rings chain.(leaf_depth - k) in
  let neighbour find =
    Array.init (leaf_depth + 1) (fun k ->
        let ring = ring_at k in
        if Ring.size ring = 0 then -1 else find ring id_m)
  in
  let pred = neighbour Ring.predecessor_of_id and succ = neighbour Ring.successor_of_id in
  let h = ref leaf_depth in
  while !h >= 0 do
    let p = pred.(!h) and l = ref !h in
    while !l > 0 && pred.(!l - 1) = p do
      decr l
    done;
    if p >= 0 && patch_predecessor t p ~m ~ring_at ~succ ~l:!l ~h:!h then incr notify_messages;
    h := !l - 1
  done;
  (* Every other node that linked to m loses exactly that link, and may
     inherit m's ring successor in its LCA ring with m. *)
  Array.iter
    (fun y ->
      if not (Array.mem y pred) then begin
        let depth = Population.link_level t.pop y m in
        patch_leave t y ~m ~next:succ.(depth) ~cap:(cap_below t y ~depth);
        incr notify_messages
      end)
    holders;
  t.in_count.(m) <- 0;
  { routing_messages = 0; link_messages; notify_messages = !notify_messages }
