(** A replicated key-value layer over the per-domain rings: every pair
    is written through to the [k] holders chosen by {!Replica_set}, and
    reads repair what faults left behind.

    Versioning is per key: each acknowledged [put] bumps the key's
    version, and a replica holding an older version (or no copy at all)
    is {e stale}. The store runs in one of two modes:

    - {e direct} (no network): replicas are contacted instantly. This is
      the membership-churn mode — {!join} and {!leave} mutate the rings
      and re-replicate every key whose holder set changed, modelling the
      §2.3 maintenance channel (a leaving node hands its data off before
      departing; a crash is modelled in net mode instead).
    - {e net} ([?net] given): every replica contact from a reader or
      writer is a {!Canon_net.Net.lookup} for the replica's own id on
      the simulated network, so crashes, loss and timeouts decide
      reachability. A crashed holder is skipped by placement; when it
      revives holding an old version, the next read finds the freshest
      reachable copy, {e read-repairs} the stale replica, and garbage-
      collects copies left at nodes no longer in the holder set.

    Telemetry (all counters, under [replication.*]): [puts],
    [write_acks] (one per replica written), [reads], [read_failures]
    (no reachable copy), [stale_reads] (reads that observed at least one
    stale or missing replica), [read_repairs] (replica copies rewritten
    by reads), [rereplications] (copies moved by churn), [gc_copies]
    (copies dropped from ex-holders).

    The replica-count invariant maintained by writes, reads-with-repair
    and churn re-replication — every key has exactly
    [min k live_nodes] distinct live replica holders — is pinned by the
    property suite ([test/prop.ml]). *)

open Canon_idspace
open Canon_overlay

type t

val create :
  ?net:Canon_net.Net.t -> ?k:int -> ?spread:Replica_set.spread -> Rings.t -> t
(** An empty replicated store over the population of [rings] with
    replication degree [k] (default 2) and placement policy [spread]
    (default {!Replica_set.Sibling}). Nodes present in their leaf ring
    are the initial members. When [net] is given its plan must cover the
    same population, and {!join}/{!leave} are disabled (fault injection
    drives membership instead). Raises [Invalid_argument] on [k < 1] or
    a net size mismatch. *)

val members : t -> int array
(** Present (joined, not left) nodes in increasing order — crashes in
    the net's fault plan do {e not} remove membership. *)

val live : t -> int -> bool
(** Present and not crashed in the net's fault plan. *)

val put :
  t -> writer:int -> key:Id.t -> value:string -> storage_domain:int -> int
(** Writes the pair through to every reachable replica holder and
    returns the number of acknowledgements (replicas written). The write
    is {e acknowledged} — its version committed, the value promised
    durable — iff the result is positive. Raises [Invalid_argument]
    when the writer is not live, the storage domain does not contain the
    writer's leaf, or the key is already bound to a different storage
    domain. *)

val get : t -> querier:int -> key:Id.t -> string option
(** The freshest value any reachable replica holds, or [None] for an
    unknown key or when no replica is reachable. Before returning, every
    reachable current holder is brought up to the returned version
    (read-repair); reachable ex-holders drop their copies only once at
    least one current holder was reachable (and hence repaired), so a
    read never destroys the last copy of an acknowledged write. Raises
    [Invalid_argument] when the querier is not live. *)

val holders : t -> key:Id.t -> int array
(** The key's current ideal replica set ({!Replica_set.compute} over the
    live membership); [[||]] for an unknown key. *)

val copies : t -> key:Id.t -> int array
(** Nodes actually holding a copy right now (including crashed ones,
    whose copies survive the crash), in increasing order. This is the
    ground truth the durability experiment counts. *)

val stored : t -> node:int -> key:Id.t -> (string * int) option
(** The copy (value, version) [node] holds, if any. For tests. *)

val version : t -> key:Id.t -> int
(** The key's highest acknowledged version; 0 when unknown. *)

val join : t -> int -> unit
(** Adds a population node to the membership and rings, then
    re-replicates: keys whose holder set now includes the newcomer get a
    copy, and ex-holders drop theirs. Direct mode only. Raises
    [Invalid_argument] in net mode or when already present. *)

val leave : t -> int -> unit
(** Graceful departure: removes the node from membership and rings,
    re-replicates every key it held (the §2.3 hand-off — its copies act
    as sources before being dropped). Direct mode only. Raises
    [Invalid_argument] in net mode or when not present. *)

val churn_hook : t -> Canon_sim.Churn.hook -> unit
(** Adapter wiring {!Canon_sim.Churn} into the store: feed it the
    events of [Churn.run ~on_event] and membership tracks the churned
    overlay — [Init] (re)joins any initially-present node not yet a
    member, [Join]/[Leave] call {!join}/{!leave}. *)
