(** The XOR-metric DHT engine shared by Kademlia/Kandy (paper §3.3) and
    the logarithmic-degree CAN / Can-Can (paper §3.4).

    Flat rule: for each [0 <= k < N], a node links to one node at XOR
    distance in [[2{^k}, 2{^k+1})] — its k-th "bucket" — when that
    bucket is non-empty. The bucket of a node [m] is exactly the set of
    identifiers agreeing with [m] above bit [k] and differing at bit
    [k]: a single aligned, contiguous identifier range, so selection is
    two binary searches. Kademlia picks a {e random} bucket member
    (nondeterministic); the generalized CAN picks the XOR-{e closest}
    member (deterministic bit-fixing hypercube edge — the aligned-range
    equivalent of CAN's virtual-node construction).

    Hierarchical (Canon) rule: buckets are filled bottom-up over the
    node's domain chain; a bucket already filled at a lower level is
    never re-filled at a higher one. Both entry points are
    {!Canonical.slot_row} with one slot per bucket: the flat DHT is the
    chain of the global ring alone. This is the Canon economy — links
    into sibling rings exist only where the own ring has none — and it
    guarantees the invariant that makes greedy XOR routing live: for
    every domain [D] containing node [m] and every bucket of [m]
    non-empty within [D], [m] links to a node of [D] in that bucket.

    Note (documented in DESIGN.md): the paper's one-paragraph sketch
    caps higher-level candidates by the shortest lower-level link
    distance; applied literally that rule can disconnect the overlay
    (two mutually-close nodes both discard their only links toward a
    third). The fill-empty-buckets-only rule above keeps no more links
    than the paper's and restores correctness. *)

open Canon_overlay

type choice =
  | Closest  (** deterministic, bit-fixing (generalized CAN) *)
  | Random of Canon_rng.Rng.t  (** uniform bucket member (Kademlia) *)

val build_flat : choice -> Population.t -> Overlay.t
(** Kademlia ([Random]) or CAN ([Closest]); the hierarchy, if any, is
    ignored. *)

val build_hierarchical : choice -> Rings.t -> Overlay.t
(** Kandy ([Random]) or Can-Can ([Closest]). *)
