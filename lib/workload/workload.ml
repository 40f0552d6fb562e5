open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

type keyspace = { keys : Id.t array }

let keyspace rng ~keys =
  if keys <= 0 then invalid_arg "Workload.keyspace: need at least one key";
  { keys = Population.unique_ids rng keys }

let key t i = t.keys.(i)

let zipf_key t sampler rng = t.keys.(Canon_stats.Zipf.draw sampler rng)

type locality_query = {
  querier : int;
  key : Id.t;
}

let local_queries rng pop ks ~sampler ~locality ~count =
  if locality < 0.0 || locality > 1.0 then invalid_arg "Workload.local_queries: bad locality";
  let n = Population.size pop in
  if n = 0 then invalid_arg "Workload.local_queries: empty population";
  (* Last key asked within each depth-1 domain. *)
  let last_in_domain : (int, Id.t) Hashtbl.t = Hashtbl.create 64 in
  let fresh () =
    let querier = Rng.int_below rng n in
    let key = zipf_key ks sampler rng in
    (querier, key)
  in
  let queries = ref [] in
  for _ = 1 to count do
    let querier, key =
      if Rng.float rng < locality then begin
        let querier = Rng.int_below rng n in
        let dom = Population.domain_of_node_at_depth pop querier 1 in
        match Hashtbl.find_opt last_in_domain dom with
        | Some key -> (querier, key)
        | None -> fresh ()
      end
      else fresh ()
    in
    let dom = Population.domain_of_node_at_depth pop querier 1 in
    Hashtbl.replace last_in_domain dom key;
    queries := { querier; key } :: !queries
  done;
  List.rev !queries
