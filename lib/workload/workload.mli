(** Query workload generators for the storage and caching experiments.

    Two knobs matter to Canon: {e popularity} (how skewed the key
    distribution is — Zipfian access makes caching pay) and
    {e locality} (how often nodes near each other in the hierarchy ask
    for the same keys — what hierarchical caching exploits). *)

open Canon_idspace

type keyspace

val keyspace : Canon_rng.Rng.t -> keys:int -> keyspace
(** A universe of distinct random keys. *)

val key : keyspace -> int -> Id.t
(** The i-th key of the universe. *)

type locality_query = {
  querier : int;
  key : Id.t;
}

val local_queries :
  Canon_rng.Rng.t ->
  Canon_overlay.Population.t ->
  keyspace ->
  sampler:Canon_stats.Zipf.sampler ->
  locality:float ->
  count:int ->
  locality_query list
(** A stream of queries where, with probability [locality], the querier
    repeats the {e previous} query of a node from the same depth-1
    domain (hierarchical locality of reference), and otherwise draws a
    fresh Zipfian key from a uniformly random node. *)
