(** What goes wrong, and where: the fault configuration of a simulated
    network.

    A fault plan is built once per experiment point and is purely
    descriptive — it holds no clock or queue. Two fault classes:

    - {e message loss}: every message is independently dropped with
      probability [loss] (drawn from the {!Net}'s RNG, so runs are
      reproducible);
    - {e crashed nodes}: a crashed node never receives anything; the
      sender only learns of the crash through timeouts. Whole domains
      can be crashed at once ({!crash_domain}) to model the paper's
      correlated-failure scenarios (a campus loses power).

    Crash mutators may be called at any time; {!Net} reads the plan
    live, so a plan mutated between lookups models failures striking
    mid-experiment. *)

open Canon_overlay

type t

val create : ?loss:float -> n:int -> unit -> t
(** A plan over [n] nodes with no crashed nodes and message-loss
    probability [loss] (default 0). Raises [Invalid_argument] unless
    [0 <= loss <= 1] and [n >= 0]. *)

val none : n:int -> t
(** A fault-free plan: [create ~loss:0.0 ~n ()]. *)

val size : t -> int

val set_loss : t -> float -> unit
(** Raises [Invalid_argument] unless [0 <= loss <= 1]. A test seam: the
    [net] "loss draws" and [replicated-store] "GC spares the last
    reachable copy" tests read it. *)

val crash : t -> int -> unit
(** Marks a node crashed (idempotent). A test seam: the [net] tests that
    crash chosen hops ("reroutes around a crashed hop", ...), the
    [replicated-store] read-repair tests and [prop.event-loop]'s "Net
    = always-timer reference loop" read it. *)

val revive : t -> int -> unit
(** A test seam: the [replicated-store] "read-repair: pinned
    hand-counted metrics" and "GC spares the last reachable copy" tests
    read it. *)

val is_crashed : t -> int -> bool

val crashed_count : t -> int
(** A test seam: the [net] "crash domain" and "crash random with
    protect" tests read it. *)

val crash_random :
  t -> Canon_rng.Rng.t -> fraction:float -> ?protect:(int -> bool) -> unit -> unit
(** Crashes each non-protected node independently with probability
    [fraction]. Raises [Invalid_argument] unless [0 <= fraction <= 1]. *)

val crash_domain : t -> Population.t -> domain:int -> unit
(** Crashes every node whose leaf lies in [domain]'s subtree — a
    whole-domain outage. The population's size must match the plan's. *)

val draw_lost : t -> Canon_rng.Rng.t -> bool
(** One per-message loss trial. Never consumes randomness when
    [loss = 0], so a fault-free run draws exactly as a plan-free one. *)
