(** Canon's merge (paper §2 and §3), written once for each link family.

    A flat DHT's link rule is applied ring by ring up a node's {e chain}:
    the rings of the domains containing it, leaf first, root last. The
    flat DHT is the chain of the global ring alone, so every flat
    construction here is its Canonical version over a one-ring chain. *)

open Canon_overlay

val ring_row :
  Rings.t -> int -> (int -> cap:int -> int array -> int -> int) -> gap:(int -> int) -> int array -> int array
(** The ring-distance family (Crescendo, Hybrid, Crescendo (Prox.),
    Symphony/Cacophony, ND-Chord/ND-Crescendo). [ring_row rings node
    rule ~gap buf] is [node]'s row. In each domain [d] of its chain
    whose ring has two members or more, [rule d ~cap buf len] writes
    the rule's targets at clockwise distance below [cap] (condition
    (b)) into [buf] from [len], and returns the new length. [cap] is
    [Id.space] in the first ring, then the least [gap d], the node's
    successor distance in [d]'s ring, of the rings passed. So each
    level's targets are closer than every member of the rings below it:
    a level never repeats another's target, and the rule needs to drop
    only its own repeats ({!add}) and the node itself. The row is the
    levels root first, so levels written nearest first give a clockwise
    row. [buf], the caller's, must hold every level; the row is the only
    allocation. *)

val add : int array -> from:int -> int -> int -> int
(** [add buf ~from len v] writes [v] at [len] and returns [len + 1],
    unless [v] is among [buf.(from) .. buf.(len - 1)]: it then returns
    [len]. *)

val successor_row :
  Rings.t ->
  (Ring.t -> Canon_idspace.Id.t -> cap:int -> int array -> from:int -> int -> int) ->
  int ->
  int array
(** The randomised ring DHTs (Symphony/Cacophony, ND-Chord/ND-Crescendo):
    [successor_row rings rule node] is {!ring_row} over one buffer for
    every row, where a ring's level is [rule ring id ~cap buf ~from len]
    (written from [len], deduped from [from]) and the ring's successor:
    {e before} the rule in the first ring, after it (if below [cap])
    above. A rule that redraws targets already linked (Symphony's) sees
    the order, so it fixes the random stream. *)

val slot_row : Rings.t -> int -> slots:int -> (Ring.t -> int -> int option) -> int array
(** The prefix/XOR family (Kademlia/Kandy, CAN/Can-Can, Pastry/Canonical
    Pastry), whose links fall into [slots] disjoint id ranges that
    exclude the node: XOR buckets or Pastry cells. Up the node's chain,
    [pick ring s] is asked for each slot [s] still empty, in increasing
    [s]; a slot is filled from the first ring with a member in it and
    never again. The targets are distinct; the row is in slot order. *)

val flat : Population.t -> (Rings.t -> int -> int array) -> Overlay.t
(** [flat pop row] gives each node [v], in index order, the row
    [row rings v], where [rings] is the one ring of the whole
    population: [pop]'s hierarchy, if any, is ignored. *)

val hierarchical : Rings.t -> (Rings.t -> int -> int array) -> Overlay.t
(** [hierarchical rings row] gives each node [v], in index order, the
    row [row rings v]. Both [flat] and [hierarchical] apply [row] to
    the rings once. *)
