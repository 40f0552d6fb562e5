(** Hierarchical caching of query answers (paper §4.2).

    Inter-domain path convergence means every query [Q] for a key leaving
    a domain [D] exits through one {e proxy node} [p(Q, D)] — the closest
    predecessor of the key within [D]. Answers are therefore cached at
    the proxy of {e every} domain level crossed on the way to the
    answer, each copy annotated with the level (depth) it serves: a copy
    at a shallower domain (smaller level number) serves a wider
    population.

    The replacement policy follows the paper: when a node's cache is
    full it preferentially evicts entries with {e larger} level numbers
    (deep, narrow copies — a copy is likely still cached one level up),
    breaking ties by least-recent use. *)

open Canon_idspace
open Canon_overlay

type t

type result = {
  value : string;
  path : Route.t;  (** route walked by this query (up to the hit) *)
  served_from_cache : bool;
  found_at : int;
}

val create : Rings.t -> capacity:int -> t
(** Per-node cache capacity in entries. [capacity = 0] disables
    caching. *)

val proxy : t -> domain:int -> key:Id.t -> int
(** The proxy node [p(Q, D)]: closest predecessor of the key in the
    domain's ring. Raises [Invalid_argument] on an empty domain. A test
    seam: the [cache] "proxy = predecessor" test pins the proxy that
    {!query} caches at to the ring predecessor. *)

val query : t -> Store.t -> Overlay.t -> querier:int -> key:Id.t -> result option
(** Routes toward the key, stopping early at any visible cached copy;
    on a store hit, caches the answer at the proxy of every domain of
    the querier's chain below the answer level, with level
    annotations. *)

val entries : t -> node:int -> int
(** Number of cached entries held by a node. A test seam: the [cache]
    "eviction respects capacity" test reads it. *)
