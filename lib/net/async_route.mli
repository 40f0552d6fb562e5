(** The outcome of one message-level lookup.

    Where the synchronous engines return a bare {!Canon_overlay.Route.t},
    an asynchronous lookup also has a cost and a fate: how long it took
    on the virtual clock (including timeouts and backoff waits), how
    many messages it spent, and whether faults forced it off the
    fault-free path. *)

open Canon_overlay

type status =
  | Delivered
      (** terminated at the key's responsible node along the exact path
          the fault-free greedy engine would have taken *)
  | Rerouted
      (** terminated at a responsible node, but faults forced at least
          one fallback link or leaf-set re-anchor on the way *)
  | Failed  (** abandoned — see {!failure} for why *)

type failure =
  | No_candidate
      (** a node's every useful link was suspect and no leaf-set entry
          could re-anchor the ring *)
  | Deadline  (** the end-to-end deadline passed before arrival *)
  | Hop_budget  (** visited more nodes than the overlay holds — a bug
                    guard, never expected *)

type t = {
  status : status;
  failure : failure option;  (** [Some] exactly when [status = Failed] *)
  route : Route.t;
      (** nodes that held the lookup, source first; for [Failed] the
          partial path up to the node that gave up *)
  wall_ms : float;  (** virtual time from first send to termination *)
  messages : int;  (** transmissions, retries included *)
  retries : int;  (** resends after a timeout *)
  timeouts : int;  (** attempts the sender gave up waiting for *)
  losses : int;  (** messages dropped by the loss process *)
  reanchors : int;  (** leaf-set fallbacks after a dead successor *)
}

val delivered : t -> bool
(** [Delivered] or [Rerouted] — the lookup reached a responsible node. *)

val status_to_string : status -> string
(** A test seam: [prop.event-loop]'s "Net = always-timer reference
    loop" prints a mismatching result with it, and the [net]
    "deterministic" test compares results through it. *)

val failure_to_string : failure -> string
(** A test seam: [prop.event-loop]'s "Net = always-timer reference
    loop" prints a mismatching result with it, and the [net] "blocked
    without leaf sets" test reads it. *)
