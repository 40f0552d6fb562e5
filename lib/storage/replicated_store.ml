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
  mutable copies : (int * entry) list;  (* every copy of the key, sorted by node *)
}

type t = {
  rings : Rings.t;
  pop : Population.t;
  k : int;
  spread : Replica_set.spread;
  net : Net.t option;
  present : bool array;
  directory : (Id.t, meta) Hashtbl.t;
}

let create ?net ?(k = 2) ?(spread = Replica_set.Sibling) rings =
  if k < 1 then invalid_arg "Replicated_store.create: k must be >= 1";
  let pop = Rings.population rings in
  (match net with
  | Some net when Net.population net != pop ->
      invalid_arg "Replicated_store.create: net over a different population"
  | _ -> ());
  let present =
    Array.init (Population.size pop) (fun v ->
        Ring.contains
          (Rings.ring rings pop.Population.leaf_of_node.(v))
          pop.Population.ids.(v))
  in
  { rings; pop; k; spread; net; present; directory = Hashtbl.create 64 }

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
  | Some meta -> Array.of_list (List.map fst meta.copies)

let stored t ~node ~key =
  match Hashtbl.find_opt t.directory key with
  | None -> None
  | Some meta -> Option.map (fun e -> (e.value, e.version)) (List.assoc_opt node meta.copies)

let version t ~key =
  match Hashtbl.find_opt t.directory key with None -> 0 | Some m -> m.version

(* [copies] with [node]'s copy set to [e], still sorted by node. *)
let rec set_copy node e = function
  | (v, _) :: rest when v = node -> (node, e) :: rest
  | ((v, _) as c) :: rest when v < node -> c :: set_copy node e rest
  | copies -> (node, e) :: copies

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
  let written = { value; version = meta.version + 1 } in
  let acks = ref 0 in
  Array.iter
    (fun h ->
      if reachable t ~src:writer h then begin
        meta.copies <- set_copy h written meta.copies;
        incr acks
      end)
    (holders_of t meta ~key);
  if !acks > 0 then meta.version <- written.version;
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
      (* Probe the holders in holder order, then the live copies outside
         the holder set in node order: those extras still count for
         freshness, and get garbage-collected once the holders are
         repaired. *)
      let probed_holders =
        Array.map (fun h -> (h, reachable t ~src:querier h, List.assoc_opt h meta.copies)) hs
      in
      let reached_extras =
        List.filter
          (fun (v, _) -> live t v && (not (Array.mem v hs)) && reachable t ~src:querier v)
          meta.copies
      in
      let best = ref (None : entry option) in
      let consider (e : entry) =
        match !best with
        | Some b when b.version >= e.version -> ()
        | _ -> best := Some e
      in
      Array.iter (function _, true, Some e -> consider e | _ -> ()) probed_holders;
      List.iter (fun (_, e) -> consider e) reached_extras;
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
              let behind =
                match e with None -> true | Some e -> e.version < fresh.version
              in
              if ok && behind then begin
                incr stale;
                meta.copies <- set_copy h fresh meta.copies;
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
          let rehomed = Array.exists (fun (_, ok, _) -> ok) probed_holders in
          if rehomed && reached_extras <> [] then begin
            meta.copies <-
              List.filter (fun (v, _) -> not (List.mem_assoc v reached_extras)) meta.copies;
            Metrics.add gc_counter (List.length reached_extras)
          end;
          Some fresh.value)
