(** A discrete-event queue: events fire in timestamp order, FIFO among
    equal timestamps. The backbone of the churn simulator.

    Events live in parallel arrays (unboxed times, insertion seqs,
    payloads), so [push], [min_time] and [take] allocate nothing beyond
    occasional capacity growth. A taken payload may stay reachable from
    the queue until a later push reuses its slot. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val clear : 'a t -> unit
(** Drops every pending event, keeping the capacity. *)

val push : 'a t -> time:float -> 'a -> unit
(** Schedules an event. [time] must be finite and non-negative. *)

val min_time : 'a t -> float
(** Timestamp of the earliest event. Raises [Invalid_argument] when
    empty. *)

val take : 'a t -> 'a
(** Removes and returns the earliest event (the one [min_time] dates);
    among equal timestamps, the earliest pushed. Raises
    [Invalid_argument] when empty. *)

val pop : 'a t -> (float * 'a) option
(** [min_time] and [take] in one call, or [None] when empty. Events
    with equal timestamps come out in insertion order. *)
