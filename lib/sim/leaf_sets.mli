(** Leaf sets (paper §2.3): "In Crescendo, each node maintains a list
    of successors at every level of the hierarchy."

    Leaf sets are not routing links — the paper notes they are cheap,
    cause no state overhead (no TCP connections) and are refreshed by a
    single message around each ring — but they are what makes abrupt
    failures survivable: when a node's successor at some level dies,
    the next leaf-set entry at that level re-anchors the ring. *)

open Canon_overlay

val successors : Rings.t -> node:int -> width:int -> int array array
(** [successors rings ~node ~width] is, for each level of [node]'s
    domain chain (leaf first), the next [width] nodes clockwise on that
    level's ring (fewer if the ring is small; never contains [node]). *)
