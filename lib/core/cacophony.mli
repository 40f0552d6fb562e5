(** Cacophony — the Canonical version of Symphony (paper §3.1).

    Each node draws [floor(log2 n_leaf)] harmonic long links inside its
    leaf ring, plus its leaf successor. At each higher level it draws
    [floor(log2 n_level)] harmonic links over that level's ring but
    {e retains only those closer than its successor at the lower level}
    (Canon's condition (b)), and always adds a link to its successor at
    the new level. Degree stays O(log n) overall; routing is greedy
    clockwise (optionally with lookahead), just as in Symphony.

    Built by {!Canonical.successor_row} with Symphony's rule: with a
    one-level hierarchy, Cacophony is exactly Symphony. *)

open Canon_overlay

val build : Canon_rng.Rng.t -> Rings.t -> Overlay.t
