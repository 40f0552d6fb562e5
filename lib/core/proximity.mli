(** Proximity adaptation — the group-based construction of §3.6.

    Nodes sharing the top [T] identifier bits form a group; [T] is
    chosen so the expected group size is a constant. Link rules then
    apply to {e group} identifiers: a rule that demands "the first node
    after id q" is satisfied by {e any} node of q's group, and the
    construction exploits that freedom by picking the group member with
    the lowest physical latency from the linking node. Nodes within a
    group form a dense (complete) network.

    - [Chord (Prox.)]: Chord built on groups — per [k < T] one link into
      group [g + 2{^k}] (the first non-empty group at or after it),
      lowest-latency member; plus the intra-group clique. Routing goes
      group-greedy, then one intra-group hop.
    - [Crescendo (Prox.)]: ordinary Crescendo below the root; at the
      top-level merge each surviving finger picks the lowest-latency
      node among all admissible candidates — the arc
      [\[2{^k}, min(2{^k+1}, d_own))] allowed by conditions (a) and (b)
      — sampling every member of an arc of fewer than 64 members and
      every [count / 32]-th member of a larger one: at most 63
      candidates, and 32 to 48 on an arc of 64 or more (the paper notes
      s = 32 suffices for proximity neighbour selection). The exact
      top-level successor is always kept so greedy clockwise routing
      stays exact. Built by {!Canonical.ring_row} with a rule that is
      Chord's below the root and, at it, the successor and the
      sampled-arc picks, deduped. *)

open Canon_overlay

type t

val default_group_size : int
(** 16 — the constant expected group size (the paper cites measurements
    that sampling s = 32 nodes suffices; a 16-node group plus the
    clique gives comparable choice at comparable state). A test seam:
    the [proximity] "chord-prox clique" test reads it. *)

val group_bits : n:int -> group_size:int -> int
(** [T = max 0 (floor(log2(n / group_size)))]; 0 for an empty
    population. A test seam: the [proximity] "group bits" test and
    [prop.router]'s "one driver = historical group and name routing"
    read it. *)

val build_chord :
  ?group_size:int ->
  Population.t ->
  node_latency:(int -> int -> float) ->
  t

val build_crescendo :
  Rings.t ->
  node_latency:(int -> int -> float) ->
  t

val overlay : t -> Overlay.t

val route : t -> src:int -> dst:int -> Route.t
(** Route to a destination node (group-greedy + clique hop for Chord;
    plain greedy clockwise for Crescendo). A Chord (Prox.) route is a
    step over {!Router.route}: traced spans have kind
    ["proximity.chord_groups"] and [dst]'s identifier as their key. *)
