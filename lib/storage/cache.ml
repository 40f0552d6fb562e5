open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
module Metrics = Canon_telemetry.Metrics

(* Hit counters keyed by the level annotation of the copy served: a
   hit at level k answered from the proxy of a depth-k domain. The
   registry get-or-create is a hash lookup, so memoise per level. *)
let hit_counter =
  let table = Hashtbl.create 8 in
  fun level ->
    match Hashtbl.find_opt table level with
    | Some c -> c
    | None ->
        let c = Metrics.counter (Printf.sprintf "cache.hit.level%d" level) in
        Hashtbl.replace table level c;
        c

let miss_counter = Metrics.counter "cache.miss"

let unanswered_counter = Metrics.counter "cache.unanswered"

type entry = {
  value : string;
  access_domain : int;
  mutable level : int;
  mutable last_used : int;
}

type t = {
  rings : Rings.t;
  capacity : int;
  caches : (Id.t, entry) Hashtbl.t array;
  mutable clock : int;
}

type result = {
  value : string;
  path : Route.t;
  served_from_cache : bool;
  found_at : int;
}

let create rings ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  let n = Population.size (Rings.population rings) in
  { rings; capacity; caches = Array.init n (fun _ -> Hashtbl.create 8); clock = 0 }

let proxy t ~domain ~key =
  let ring = Rings.ring t.rings domain in
  if Ring.size ring = 0 then invalid_arg "Cache.proxy: empty domain";
  Ring.predecessor_of_id ring key

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Evict, preferring larger level numbers (deeper, narrower copies),
   breaking ties by least-recent use. *)
let evict_one t node =
  let cache = t.caches.(node) in
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | None -> victim := Some (key, e)
      | Some (_, best) ->
          if e.level > best.level || (e.level = best.level && e.last_used < best.last_used)
          then victim := Some (key, e))
    cache;
  match !victim with
  | None -> ()
  | Some (key, _) -> Hashtbl.remove cache key

let cache_at t node key ~value ~access_domain ~level =
  if t.capacity > 0 then begin
    let cache = t.caches.(node) in
    match Hashtbl.find_opt cache key with
    | Some existing ->
        (* A node proxying several levels labels itself with the
           smallest (widest-serving) one. *)
        existing.level <- min existing.level level;
        existing.last_used <- tick t
    | None ->
        if Hashtbl.length cache >= t.capacity then evict_one t node;
        Hashtbl.replace cache key { value; access_domain; level; last_used = tick t }
  end

let visible t ~querier ~at entry =
  let pop = Rings.population t.rings in
  let tree = pop.Population.tree in
  Domain_tree.is_ancestor tree ~anc:entry.access_domain
    ~desc:(Population.lca_of_nodes pop querier at)

let cache_hit t ~querier ~key node =
  match Hashtbl.find_opt t.caches.(node) key with
  | Some entry when visible t ~querier ~at:node entry ->
      entry.last_used <- tick t;
      Some entry
  | Some _ | None -> None

let query t store overlay ~querier ~key =
  let pop = Rings.population t.rings in
  let tree = pop.Population.tree in
  let route = Router.greedy_clockwise overlay ~src:querier ~key in
  let nodes = route.Route.nodes in
  let rec find i =
    if i >= Array.length nodes then None
    else begin
      let node = nodes.(i) in
      match cache_hit t ~querier ~key node with
      | Some entry ->
          Metrics.incr (hit_counter entry.level);
          Some (i, entry.value, entry.access_domain, true)
      | None -> (
          match Store.probe store ~querier ~key ~node with
          | Some (value, access_domain) ->
              Metrics.incr miss_counter;
              Some (i, value, access_domain, false)
          | None -> find (i + 1))
    end
  in
  match find 0 with
  | None ->
      Metrics.incr unanswered_counter;
      None
  | Some (i, value, access_domain, from_cache) ->
      let found_at = nodes.(i) in
      let path = Route.{ nodes = Array.sub nodes 0 (i + 1) } in
      (* Populate the proxies of every domain of the querier's chain
         strictly deeper than the level the answer was found at. *)
      let answer_depth = Domain_tree.depth tree (Population.lca_of_nodes pop querier found_at) in
      let chain = Rings.chain t.rings querier in
      Array.iter
        (fun domain ->
          let depth = Domain_tree.depth tree domain in
          if depth > answer_depth && Ring.size (Rings.ring t.rings domain) > 0 then begin
            let p = proxy t ~domain ~key in
            cache_at t p key ~value ~access_domain ~level:depth
          end)
        chain;
      Some { value; path; served_from_cache = from_cache; found_at }

let entries t ~node = Hashtbl.length t.caches.(node)
