open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_net
module Metrics = Canon_telemetry.Metrics

let puts_counter = Metrics.counter "replication.puts"

let acks_counter = Metrics.counter "replication.write_acks"

let reads_counter = Metrics.counter "replication.reads"

let read_failures_counter = Metrics.counter "replication.read_failures"

let stale_reads_counter = Metrics.counter "replication.stale_reads"

let read_repairs_counter = Metrics.counter "replication.read_repairs"

let gc_counter = Metrics.counter "replication.gc_copies"

type entry = {
  value : string;
  version : int;
}

type meta = {
  storage_domain : int;
  mutable version : int;  (* highest acknowledged version *)
  mutable copies : int list;  (* nodes believed to hold a copy, sorted *)
}

type t = {
  rings : Rings.t;
  pop : Population.t;
  k : int;
  spread : Replica_set.spread;
  net : Net.t option;
  present : bool array;
  tables : (Id.t, entry) Hashtbl.t array;
  directory : (Id.t, meta) Hashtbl.t;
}

let create ?net ?(k = 2) ?(spread = Replica_set.Sibling) rings =
  if k < 1 then invalid_arg "Replicated_store.create: k must be >= 1";
  let pop = Rings.population rings in
  let n = Population.size pop in
  (match net with
  | Some net when Fault_plan.size (Net.plan net) <> n ->
      invalid_arg "Replicated_store.create: net population mismatch"
  | _ -> ());
  let present =
    Array.init n (fun v ->
        Ring.contains
          (Rings.ring rings pop.Population.leaf_of_node.(v))
          pop.Population.ids.(v))
  in
  {
    rings;
    pop;
    k;
    spread;
    net;
    present;
    tables = Array.init n (fun _ -> Hashtbl.create 16);
    directory = Hashtbl.create 64;
  }

let live t v =
  t.present.(v)
  &&
  match t.net with
  | None -> true
  | Some net -> not (Fault_plan.is_crashed (Net.plan net) v)

(* Can [src] contact replica [target] right now? Direct mode: any live
   node. Net mode: a lookup for the target's own id must terminate at
   the target — crashes, loss and timeouts along the way decide. *)
let reachable t ~src target =
  live t target
  && (target = src
     ||
     match t.net with
     | None -> true
     | Some net ->
         let r = Net.lookup net ~src ~key:t.pop.Population.ids.(target) in
         Async_route.delivered r
         && Route.destination r.Async_route.route = target)

let holders_of t meta ~key =
  Replica_set.compute ~alive:(live t) t.rings ~spread:t.spread ~k:t.k
    ~domain:meta.storage_domain ~key

let holders t ~key =
  match Hashtbl.find_opt t.directory key with
  | None -> [||]
  | Some meta -> holders_of t meta ~key

let copies t ~key =
  match Hashtbl.find_opt t.directory key with
  | None -> [||]
  | Some meta -> Array.of_list meta.copies

let stored t ~node ~key =
  match Hashtbl.find_opt t.tables.(node) key with
  | None -> None
  | Some e -> Some (e.value, e.version)

let version t ~key =
  match Hashtbl.find_opt t.directory key with None -> 0 | Some m -> m.version

let add_copy meta node =
  if not (List.mem node meta.copies) then
    meta.copies <- List.sort compare (node :: meta.copies)

let drop_copy meta node = meta.copies <- List.filter (( <> ) node) meta.copies

let put t ~writer ~key ~value ~storage_domain =
  if not (live t writer) then invalid_arg "Replicated_store.put: writer not live";
  if
    not
      (Domain_tree.is_ancestor t.pop.Population.tree ~anc:storage_domain
         ~desc:t.pop.Population.leaf_of_node.(writer))
  then invalid_arg "Replicated_store.put: storage domain does not contain the writer";
  let meta =
    match Hashtbl.find_opt t.directory key with
    | Some m ->
        if m.storage_domain <> storage_domain then
          invalid_arg "Replicated_store.put: key already bound to another storage domain";
        m
    | None ->
        let m = { storage_domain; version = 0; copies = [] } in
        Hashtbl.replace t.directory key m;
        m
  in
  Metrics.incr puts_counter;
  let next_version = meta.version + 1 in
  let acks = ref 0 in
  Array.iter
    (fun h ->
      if reachable t ~src:writer h then begin
        Hashtbl.replace t.tables.(h) key { value; version = next_version };
        add_copy meta h;
        incr acks
      end)
    (holders_of t meta ~key);
  if !acks > 0 then meta.version <- next_version;
  Metrics.add acks_counter !acks;
  !acks

let get t ~querier ~key =
  if not (live t querier) then invalid_arg "Replicated_store.get: querier not live";
  Metrics.incr reads_counter;
  match Hashtbl.find_opt t.directory key with
  | None ->
      Metrics.incr read_failures_counter;
      None
  | Some meta ->
      let hs = holders_of t meta ~key in
      (* Live copies outside the holder set still count for freshness,
         and get garbage-collected once the holders are repaired. *)
      let extras = List.filter (fun v -> live t v && not (Array.mem v hs)) meta.copies in
      let probe v = (v, reachable t ~src:querier v, Hashtbl.find_opt t.tables.(v) key) in
      let probed_holders = Array.map probe hs in
      let probed_extras = List.map probe extras in
      let best = ref (None : entry option) in
      let consider ((_, ok, e) : int * bool * entry option) =
        match (ok, e) with
        | true, Some e -> (
            match !best with
            | Some b when b.version >= e.version -> ()
            | _ -> best := Some e)
        | _ -> ()
      in
      Array.iter consider probed_holders;
      List.iter consider probed_extras;
      (match !best with
      | None ->
          Metrics.incr read_failures_counter;
          None
      | Some fresh ->
          (* Read-repair: reachable holders missing the value or behind
             the freshest version are rewritten. *)
          let stale = ref 0 in
          Array.iter
            (fun ((h, ok, e) : int * bool * entry option) ->
              if ok then
                let behind =
                  match e with None -> true | Some e -> e.version < fresh.version
                in
                if behind then begin
                  incr stale;
                  Hashtbl.replace t.tables.(h) key fresh;
                  add_copy meta h;
                  Metrics.incr read_repairs_counter
                end)
            probed_holders;
          if !stale > 0 then Metrics.incr stale_reads_counter;
          (* GC: reachable copies at nodes no longer in the holder set —
             but only once the fresh version is re-homed on a reachable
             holder (the repair loop above just did so). With every
             holder unreachable an extra may hold the only copy of the
             acknowledged version; collecting it would destroy the
             write the read just returned. *)
          let rehomed =
            Array.exists
              (fun ((_, ok, _) : int * bool * entry option) -> ok)
              probed_holders
          in
          if rehomed then
            List.iter
              (fun (v, ok, _) ->
                if ok then begin
                  Hashtbl.remove t.tables.(v) key;
                  drop_copy meta v;
                  Metrics.incr gc_counter
                end)
              probed_extras;
          Some fresh.value)
