(** Symphony (Manku, Bawa, Raghavan; USITS 2003) — randomized small-world
    DHT over the ring, second baseline (paper §3.1) — and its Canonical
    version, Cacophony.

    Each node keeps a link to its successor plus [floor(log2 n)] long
    links; a long link spans a clockwise distance [x * 2{^N}] where [x]
    is drawn from the harmonic density [1/(x ln n)] on [[1/n, 1]].
    Greedy clockwise routing takes O(log{^2} n / k) hops with k long
    links; with 1-lookahead this drops to O(log n / log log n).

    Both entry points apply this rule through {!Canonical.successor_row}:
    over the global ring alone for Symphony, ring by ring up the domain
    chain for Cacophony. *)

open Canon_overlay

val build : Canon_rng.Rng.t -> Population.t -> Overlay.t
(** Flat Symphony; the hierarchy, if any, is ignored. *)

val build_canonical : Canon_rng.Rng.t -> Rings.t -> Overlay.t
(** Cacophony: see {!Cacophony}. *)

val harmonic_distance : Canon_rng.Rng.t -> n:int -> int
(** One harmonic draw: a clockwise distance in [[1, 2{^N})] distributed
    as [x * 2{^N}] with [x ~ 1/(x ln n)] on [[1/n, 1)]. Requires
    [n >= 2]. A test seam: the [symphony] "harmonic distribution" test
    reads it. *)
