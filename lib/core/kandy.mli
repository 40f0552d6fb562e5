(** Kandy — the Canonical version of Kademlia (paper §3.3).

    Buckets are filled bottom-up over the node's domain chain with
    uniformly random members; buckets already filled within a lower
    (inner) domain are never re-filled at higher levels, which is the
    Canon economy of links: {!Canonical.slot_row} with one slot per XOR
    bucket. See {!Xor_dht} for the routing-liveness invariant this
    preserves. *)

open Canon_overlay

val build : Canon_rng.Rng.t -> Rings.t -> Overlay.t
