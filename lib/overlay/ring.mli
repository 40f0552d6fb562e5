(** A ring of nodes sorted by identifier.

    Every DHT construction in this repository reduces to queries on
    sorted rings: "the closest node at least distance d away from m",
    "the successor of id q", "the node responsible for key k". A ring is
    a sorted array of (identifier, node index) pairs with O(log n)
    wrapping binary searches. Static constructions only read it;
    {!insert} and {!remove} mutate it in place for the
    dynamic-maintenance simulator.

    {b Storage.} The pairs live in two byte buffers, 4 bytes a slot:
    identifiers as unsigned 32-bit values ([Id.bits] is 32) and node
    indices as signed ones, so a node index must lie in [\[0, 2{^31})].
    Every constructor and {!insert} checks both bounds and raises
    [Invalid_argument] on a value outside them. A ring of [k] members
    holds 8 bytes a member that the GC never scans, and an insert or
    remove shifts the slots after its rank with one [Bytes.blit] (a
    memmove) per buffer. *)

open Canon_idspace

type t

val of_members : ids:Id.t array -> members:int array -> t
(** [of_members ~ids ~members] builds the ring of the node indices in
    [members], where [ids.(node)] is each node's identifier: one radix
    sort, then one pass. The caller keeps [members]. Raises
    [Invalid_argument] if two members share an identifier. *)

val create : capacity:int -> t
(** An empty ring with room for [capacity] members before its buffers
    grow. Filled by {!insert} in increasing identifier order, it costs
    O(1) a member and allocates nothing more. *)

val size : t -> int

val members : t -> int array
(** Members in increasing identifier order. *)

val id_at : t -> int -> Id.t
(** Identifier at a rank in [0, size). Raises
    [Invalid_argument "index out of bounds"] at any other rank. *)

val node_at : t -> int -> int
(** Node index at a rank in [0, size). Raises
    [Invalid_argument "index out of bounds"] at any other rank. *)

val contains : t -> Id.t -> bool
(** Is some member's identifier exactly this id? *)

val first_at_or_after : t -> Id.t -> int
(** [first_at_or_after t q] is the node whose identifier is reached
    first when walking clockwise from [q] (including [q] itself).
    Requires a non-empty ring. *)

val successor_of_id : t -> Id.t -> int
(** [successor_of_id t q] is the first node strictly clockwise of [q]
    (excluding a node whose id equals [q]). Requires a non-empty ring. *)

val predecessor_of_id : t -> Id.t -> int
(** [predecessor_of_id t q] is the node managing key [q] under the
    paper's improved rule: the node with the largest identifier less
    than or equal to [q], wrapping. Requires a non-empty ring. *)

val successor_distance : t -> Id.t -> int
(** [successor_distance t id] is the clockwise distance from [id]
    (assumed to be a member's identifier) to the nearest *other*
    member; [Id.space] when the ring has a single member. *)

val finger : t -> Id.t -> int -> int option
(** [finger t id d] is the Chord link rule: the closest node at least
    clockwise distance [d >= 1] away from the member with identifier
    [id], or [None] if no other node qualifies (i.e. the walk wraps all
    the way back to [id] itself). *)

val arc_count : t -> start:Id.t -> len:int -> int
(** Number of members in the clockwise arc [\[start, start+len)], i.e.
    members [x] with [distance start x < len]. Requires
    [0 <= len <= Id.space]. *)

val random_in_arc : Canon_rng.Rng.t -> t -> start:Id.t -> len:int -> int option
(** A uniform random member of the arc [\[start, start+len)]: one
    [Rng.int_below] of its {!arc_count}, and no draw at all when the arc
    is empty ([None]). The nondeterministic choice of ND-Chord, Kademlia
    and Pastry. *)

val rank_at_or_after : t -> Id.t -> int
(** Rank (in sorted order, not wrapping) of the first member with
    identifier [>= q]; [size t] when none. The start of a rank walk
    ({!nth_from}) and of the XOR-bucket bit-descent searches. *)

val nth_from : t -> int -> int -> int
(** [nth_from t rank i] is the node [i] places clockwise of rank [rank],
    wrapping. With [rank = rank_at_or_after t start] it is the member at
    clockwise position [i] (0-based) of any arc from [start], so a walk
    over an arc costs one binary search in all, not one per member.
    Requires [0 <= rank + i < 2 * size t]. *)

val insert : t -> id:Id.t -> node:int -> unit
(** Adds a member: one binary search, then one memmove of the
    [4 * (size - rank)] bytes after its rank in each buffer (O(1) when
    [id] is past every member's, with no search). The buffers double
    when full. Raises [Invalid_argument] on a duplicate identifier or a
    node index or identifier out of range. Used by the
    dynamic-maintenance simulator and by {!Rings.build_partial}; static
    constructions never mutate rings they were built from. *)

val remove : t -> id:Id.t -> unit
(** Removes the member with this identifier: one binary search and one
    memmove a buffer. Raises [Invalid_argument] if absent. *)
