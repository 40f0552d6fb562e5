(** The circular N-bit identifier space shared by every DHT in Canon.

    All identifiers live in [0, 2{^N}) with [N = 32], exactly as in the
    paper's evaluation ("all nodes choose a random 32-bit ID"). They are
    represented as plain OCaml ints; every function here hides the
    wrap-around arithmetic so no other module manipulates raw modular
    values.

    Two metrics are provided:
    - {!distance}: clockwise distance on the ring (Chord, Symphony,
      Crescendo, Cacophony);
    - {!xor_distance}: the Kademlia/CAN XOR metric. *)

type t = int
(** An identifier in [0, 2{^32}). *)

val bits : int
(** Number of identifier bits, [N = 32]. *)

val space : int
(** [2{^bits}], the size of the identifier space. *)

val zero : t

val of_int : int -> t
(** [of_int v] reduces [v] modulo [2{^bits}]; raises [Invalid_argument]
    on negative input. *)

val equal : t -> t -> bool

val random : Canon_rng.Rng.t -> t
(** A uniformly random identifier. *)

val add : t -> int -> t
(** [add id d] moves [d] clockwise (modulo the space). [d] may be any
    int; negative values move counter-clockwise. *)

val distance : t -> t -> int
(** [distance a b] is the clockwise distance from [a] to [b]:
    the unique [d] in [0, 2{^bits}) with [add a d = b]. *)

val xor_distance : t -> t -> int
(** The Kademlia metric: integer value of [a lxor b]. *)

val in_clockwise_interval : t -> lo:t -> hi:t -> bool
(** [in_clockwise_interval x ~lo ~hi] is true when walking clockwise
    from [lo] (exclusive) reaches [x] no later than [hi] (inclusive).
    When [lo = hi] the interval is the whole ring. A test seam: the
    [ring] property "predecessor/successor bracket every key" reads it. *)

val log2_floor : int -> int
(** [log2_floor d] for [d > 0] is the largest [k] with [2{^k} <= d]. *)

val common_prefix_bits : t -> t -> int
(** Number of leading bits (out of {!bits}) shared by the two ids. *)

val prefix : t -> int -> int
(** [prefix id k] is the top [k] bits of [id], i.e.
    [id lsr (bits - k)]. Requires [0 <= k <= bits]. *)
