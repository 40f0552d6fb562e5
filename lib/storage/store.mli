(** Hierarchical storage, retrieval and access control (paper §4.1).

    A publisher inserts a key-value pair with a {e storage domain}
    [Ds] (a domain containing the publisher, within which the pair must
    physically live) and an {e access domain} [Da ⊇ Ds] (to all of whose
    nodes the pair is visible). The pair is stored at the node of [Ds]
    whose identifier is the closest at or below the key — the ring of
    [Ds] alone decides placement. If [Da] is strictly larger, a
    {e pointer} to the pair is additionally stored at [Da]'s responsible
    node.

    Lookup is plain hierarchical greedy routing toward the key. A node
    [m] on the path returns a matching pair (or resolves a matching
    pointer) iff the pair's access domain contains the lowest common
    ancestor of [m] and the query source — the "current routing level"
    of the paper, which makes access control fall out of routing: a
    querier outside the access domain can meet the responsible node only
    at a routing level above [Da], where the check fails. *)

open Canon_idspace
open Canon_overlay

type t

type hit = {
  value : string;
  found_at : int;  (** node on the query path that answered *)
  via_pointer : int option;
      (** when the answer was a pointer, the node the content was
          fetched from *)
  path : Route.t;  (** greedy route walked up to [found_at] *)
}

val create : Rings.t -> t
(** An empty store over the given population. *)

val insert :
  t ->
  publisher:int ->
  key:Id.t ->
  value:string ->
  storage_domain:int ->
  access_domain:int ->
  unit
(** Stores the pair. Raises [Invalid_argument] unless [storage_domain]
    contains the publisher's leaf, [access_domain] contains
    [storage_domain], and the storage domain has at least one node. *)

val storage_node : t -> domain:int -> key:Id.t -> int
(** The node of [domain] responsible for [key] (the paper's
    closest-at-or-below rule). A test seam: the [store] "global
    insert/lookup", "placement rule", "pointer indirection" and "probe"
    tests and the [cache] "hit after miss" test read it. *)

val lookup : t -> Overlay.t -> querier:int -> key:Id.t -> hit option
(** Routes greedily from [querier] toward [key]; returns the first
    visible answer, resolving a pointer if needed. [None] when routing
    completes without a visible answer. *)

val probe : t -> querier:int -> key:Id.t -> node:int -> (string * int) option
(** [probe t ~querier ~key ~node] is the value (and its access domain)
    that [node] would answer to [querier]'s query, resolving a pointer
    if needed; [None] when the node holds nothing visible. Used by the
    caching layer, which walks the route itself. *)

val remove : t -> key:Id.t -> storage_domain:int -> access_domain:int -> unit
(** Removes all values stored for [key] under exactly this
    storage/access domain pair (and the matching pointer). *)
