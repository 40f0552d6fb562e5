(** A discrete-event queue: events fire in timestamp order, FIFO among
    equal timestamps. The backbone of the churn simulator. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Schedules an event. [time] must be finite and non-negative. *)

val pop : 'a t -> (float * 'a) option
(** The earliest event, or [None] when empty. Events with equal
    timestamps come out in insertion order. *)
