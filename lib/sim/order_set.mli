(** A set of integers in [\[0, capacity)] with order statistics: a
    Fenwick tree over membership bits. Membership changes and "the
    j-th smallest member" cost O(log capacity), the count O(1), so the
    churn driver can draw a uniform member without listing the set. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [\[0, capacity)]. Raises
    [Invalid_argument] if [capacity < 0]. *)

val add : t -> int -> unit
(** Adds a member; no-op if already present. Raises [Invalid_argument]
    outside [\[0, capacity)]. *)

val remove : t -> int -> unit
(** Removes a member; no-op if absent. Raises [Invalid_argument]
    outside [\[0, capacity)]. *)

val count : t -> int
(** Number of members, O(1). *)

val nth : t -> int -> int
(** [nth t j] is the [j]-th smallest member, 0-based. Raises
    [Invalid_argument] unless [0 <= j < count t]. *)
