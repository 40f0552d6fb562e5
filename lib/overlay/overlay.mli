(** A constructed overlay network: a population plus the outgoing links
    each construction decided on.

    Links are directed (the paper counts out-degree only). The adjacency
    is immutable once built; constructions hand it over through
    {!create}. *)

type t

val create : Population.t -> links:int array array -> t
(** [create pop ~links] with [links.(node)] the array of link targets of
    [node]. Raises [Invalid_argument] on a size mismatch, and otherwise
    on the first offending link in node order, then link order:
    ["Overlay.create: self-link"], ["Overlay.create: target out of
    range"] or ["Overlay.create: duplicate link"]. *)

val population : t -> Population.t

val size : t -> int

val id : t -> int -> Canon_idspace.Id.t

val links : t -> int -> int array
(** Outgoing links of a node (not copied — callers must not mutate). *)

val degree : t -> int -> int

val degrees : t -> int array
(** Out-degree of every node. *)

val mean_degree : t -> float

val has_link : t -> int -> int -> bool

val iter_links : t -> (int -> int -> unit) -> unit
(** [iter_links t f] calls [f src dst] for every directed link. *)

(** {2 The clockwise table}

    Every node's links sorted by clockwise distance from the node, in
    one flat array: what {!Canon_core.Router.step_clockwise_table} needs
    to take the greedy clockwise step with one binary search instead of
    a pass over the links (the form every [Canon_net.Net] hop over a
    frozen overlay takes). An entry packs one link as
    [(distance lsl 30) lor target], so entries order by distance and
    fit a 63-bit int (distances are below 2{^32}, targets below
    2{^30}). *)

type clockwise = private {
  offsets : int array;
      (** [n + 1] entries: node [u]'s links are
          [entries.(offsets.(u)) .. entries.(offsets.(u + 1) - 1)] *)
  entries : int array;  (** one packed entry per link, ascending per node *)
}

val clockwise : t -> clockwise
(** The overlay's clockwise table, built on the first call and shared
    by every later one (and so by every [Canon_net.Net] over the
    overlay). Memory: one int per link plus [n + 1] offsets — about
    0.9 MB for an 8192-node Crescendo of mean degree 12.4 — held as
    long as the overlay. Building costs O(E x degree) with an in-place
    insertion sort per node. Raises [Invalid_argument] when [n >= 2{^30}]
    or when ids collide: two links of a node at the same clockwise
    distance, or a link to a node with the holder's own id. *)

val entry_distance : int -> int
(** Clockwise distance from the holder to the link of a packed entry. *)

val entry_target : int -> int
(** Target node of a packed entry. *)
