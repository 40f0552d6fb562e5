(** A replicated key-value layer over the per-domain rings: every pair
    is written through to the [k] holders chosen by {!Replica_set}, and
    reads repair what faults left behind.

    Versioning is per key: each acknowledged [put] bumps the key's
    version, and a replica holding an older version (or no copy at all)
    is {e stale}. The members are the nodes present in their leaf ring
    at {!create}; the store runs in one of two modes:

    - {e direct} (no network): every member is reachable at once.
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
    by reads), [gc_copies] (copies dropped from ex-holders).

    {b Where copies live.} A key's directory entry is the only place its
    replicas live: it holds the key's storage domain, its acknowledged
    version and its copies, one (node, value, version) each, sorted by
    node. A node holds no table of its own, so the store costs nothing
    per member beyond one presence flag, and each key one directory
    entry plus one list cell per copy.

    The replica-count invariant maintained by writes and
    reads-with-repair — every key has exactly [min k live_nodes]
    distinct live replica holders — is pinned by the property suite
    ([test/prop.ml]). *)

open Canon_idspace
open Canon_overlay

type t

val create :
  ?net:Canon_net.Net.t -> ?k:int -> ?spread:Replica_set.spread -> Rings.t -> t
(** An empty replicated store over the population of [rings] with
    replication degree [k] (default 2) and placement policy [spread]
    (default {!Replica_set.Sibling}). Nodes present in their leaf ring
    are the members. When [net] is given it must route over the very
    population of [rings] (compared physically, as {!Canon_net.Net.create}
    compares its [?rings]). Raises [Invalid_argument] on [k < 1] or a
    net over another population. *)

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
    live membership); [[||]] for an unknown key. A test seam:
    [prop.replication]'s "put/get round trip, copies = holders" and
    "read-repair restores invariant after one fault" read it. *)

val copies : t -> key:Id.t -> int array
(** Nodes actually holding a copy right now (including crashed ones,
    whose copies survive the crash), in increasing order. This is the
    ground truth the durability experiment counts. *)

val stored : t -> node:int -> key:Id.t -> (string * int) option
(** The copy (value, version) [node] holds, if any. A test seam:
    [prop.replication]'s "read-repair restores invariant after one
    fault" and the [replicated-store] read-repair tests read it. *)

val version : t -> key:Id.t -> int
(** The key's highest acknowledged version; 0 when unknown. A test seam,
    read by the same property and tests as {!stored}. *)
