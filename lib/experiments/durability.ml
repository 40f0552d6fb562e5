open Canon_idspace
open Canon_overlay
open Canon_storage
open Canon_net
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

let config_label (spread, k) =
  Printf.sprintf "%s k=%d" (Replica_set.spread_to_string spread) k

(* One store per (spread, k) configuration, all over the same rings and
   holding the same keys. *)
let build_stores rings ~configs ~published =
  List.map
    (fun (spread, k) ->
      let store = Replicated_store.create ~k ~spread rings in
      Array.iter
        (fun (publisher, key, storage_domain) ->
          ignore
            (Replicated_store.put store ~writer:publisher ~key ~value:"x"
               ~storage_domain))
        published;
      store)
    configs

(* A key survives a crash set iff some copy holder is still standing. *)
let surviving_fraction store ~published ~crashed =
  let ok = ref 0 in
  Array.iter
    (fun (_, key, _) ->
      if Array.exists (fun c -> not crashed.(c)) (Replicated_store.copies store ~key)
      then incr ok)
    published;
  Float.of_int !ok /. Float.of_int (Array.length published)

let run_with ?(fail_fracs = [ 0.1; 0.2; 0.3; 0.5 ])
    ?(ks = [ 2; 3 ]) ?(spreads = [ Replica_set.Flat; Replica_set.Sibling ]) ?n ?keys
    ~scale ~seed () =
  if ks = [] || spreads = [] then
    invalid_arg "Durability.run_with: empty configuration";
  List.iter (fun k -> if k < 1 then invalid_arg "Durability.run_with: k < 1") ks;
  List.iter
    (fun f ->
      if not (f >= 0.0 && f <= 1.0) then
        invalid_arg "Durability.run_with: fail_frac not in [0, 1]")
    fail_fracs;
  let n =
    match (n, scale) with Some n, _ -> n | None, `Paper -> 4096 | None, `Quick -> 256
  in
  let keys =
    match (keys, scale) with
    | Some k, _ -> k
    | None, `Paper -> 2000
    | None, `Quick -> 400
  in
  if n < 1 then invalid_arg "Durability.run_with: n < 1";
  if keys < 1 then invalid_arg "Durability.run_with: keys < 1";
  let pop = Common.hierarchy_population ~seed ~levels:2 ~n in
  let rings = Rings.build pop in
  let configs = List.concat_map (fun s -> List.map (fun k -> (s, k)) ks) spreads in
  (* The published set: distinct random keys, each stored in its
     publisher's own leaf domain (the tightest storage domain — the case
     flat successor-replication cannot spread). *)
  let rng = Rng.create (seed + 17) in
  let seen = Hashtbl.create keys in
  let published =
    Array.init keys (fun _ ->
        let publisher = Rng.int_below rng n in
        let rec fresh () =
          let key = Id.random rng in
          if Hashtbl.mem seen key then fresh ()
          else begin
            Hashtbl.replace seen key ();
            key
          end
        in
        (publisher, fresh (), pop.Population.leaf_of_node.(publisher)))
  in
  let stores = build_stores rings ~configs ~published in
  (* The outage target: the leaf domain storing the most keys. *)
  let key_count = Hashtbl.create 16 in
  Array.iter
    (fun (_, _, d) ->
      Hashtbl.replace key_count d (1 + Option.value ~default:0 (Hashtbl.find_opt key_count d)))
    published;
  let outage_domain, outage_keys =
    Hashtbl.fold
      (fun d c ((_, best_c) as best) -> if c > best_c then (d, c) else best)
      key_count (-1, 0)
  in
  let outage_members = Ring.members (Rings.ring rings outage_domain) in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Durability: keys-surviving fraction vs crashed-node fraction (n = %d, %d \
            keys, outage = leaf domain of %d nodes holding %d keys)"
           n keys (Array.length outage_members) outage_keys)
      ~columns:("fail frac" :: List.map config_label configs)
  in
  let add_row label crashed =
    Table.add_float_row table label
      (List.map (fun store -> surviving_fraction store ~published ~crashed) stores)
  in
  List.iter
    (fun frac ->
      let rng = Rng.create (seed + 1 + int_of_float (frac *. 1000.0)) in
      let plan = Fault_plan.none ~n in
      Fault_plan.crash_random plan rng ~fraction:frac ();
      let crashed = Array.init n (Fault_plan.is_crashed plan) in
      add_row (Printf.sprintf "%.0f%%" (frac *. 100.0)) crashed)
    fail_fracs;
  let plan = Fault_plan.none ~n in
  Fault_plan.crash_domain plan pop ~domain:outage_domain;
  add_row "outage" (Array.init n (Fault_plan.is_crashed plan));
  table

let run ~scale ~seed = run_with ~scale ~seed ()
