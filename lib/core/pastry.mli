(** Pastry (Rowstron & Druschel, Middleware 2001) and its Canonical
    version (paper §3.3).

    Identifiers are read as a sequence of base-2{^b} digits (b = 4, so
    eight hexadecimal digits of a 32-bit id). A node's routing table has
    one cell per (prefix length l, digit d): a link to {e some} node
    sharing the first [l] digits and holding digit [d] at position [l]
    — a nondeterministic choice, which is why the paper calls Pastry
    and Kademlia "hypercube versions of nondeterministic Chord". Each
    cell is an aligned identifier range, so construction is two binary
    searches per cell.

    Prefix routing fixes at least one digit per hop; since every cell
    containing the target is non-empty by definition, greedy XOR descent
    (which is never worse than one-digit fixing) reaches the target.

    The Canonical version fills cells bottom-up over the node's domain
    chain, never re-filling a cell already filled within an inner
    domain — the same Canon economy and within-domain completeness
    invariant as {!Xor_dht}, with the same consequences: O(log n)
    degree, intra-domain locality, inter-domain convergence. Both entry
    points are {!Canonical.slot_row} with one slot per cell: flat
    Pastry is the chain of the global ring alone. *)

open Canon_overlay

val digit_bits : int
(** b = 4. A test seam: the [pastry] "constants", "cell structure" and
    "cell completeness" tests read it. *)

val digits : int
(** Digits per identifier: [Id.bits / digit_bits] = 8. A test seam, read
    by the [pastry] "constants" and "cell completeness" tests. *)

val build : Canon_rng.Rng.t -> Population.t -> Overlay.t
(** Flat Pastry. *)

val build_canonical : Canon_rng.Rng.t -> Rings.t -> Overlay.t
(** Canonical Pastry. *)
