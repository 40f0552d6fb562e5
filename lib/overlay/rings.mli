(** The per-domain ring index: for every domain of the hierarchy, the
    ring formed by all nodes in that domain's subtree.

    This realises the paper's central invariant — "the nodes in any
    domain form a DHT routing structure by themselves" — as a queryable
    data structure, and is the workhorse of every Canonical
    construction, of proxy-node computation for caching, and of the
    hierarchical storage layer. *)

type t

val build : Population.t -> t
(** {!build_partial} over every node. Domains with no nodes get empty
    rings. Raises [Invalid_argument] if two nodes share an identifier. *)

val population : t -> Population.t

val ring : t -> int -> Ring.t
(** The ring of a domain index. May be empty. *)

val ring_of_node_at_depth : t -> int -> int -> Ring.t
(** [ring_of_node_at_depth t node k] is the ring of the domain at depth
    [k] on the path from the root to [node]'s leaf (clipped to the
    leaf depth). Depth 0 is the global ring. *)

val chain : t -> int -> int array
(** [chain t node] lists the domains containing [node] from its leaf up
    to the root (leaf first, root last). *)

val responsible : t -> domain:int -> key:Canon_idspace.Id.t -> int
(** The node responsible for [key] within [domain]: the member with the
    largest identifier <= key (wrapping) — the paper's storage rule.
    Raises [Invalid_argument] if the domain has no nodes. *)

val build_partial : Population.t -> present:int array -> t
(** The rings of the listed nodes only; the rest of the population is
    treated as not (yet) joined. Used by the dynamic-maintenance
    simulator. Cost: one sort of [present] by identifier (the root
    ring), then O(n · depth) to count each domain's members and append
    them, in that order, to rings sized to fit: no per-domain sort and
    no copy. Raises
    [Invalid_argument] if two listed nodes share an identifier. *)

val add_node : t -> int -> unit
(** Inserts a node of the population into every ring of its chain
    (leaf to root). Raises if already present. *)

val remove_node : t -> int -> unit
(** Removes a node from every ring of its chain. *)
