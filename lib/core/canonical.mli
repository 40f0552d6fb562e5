(** Canon's merge (paper §2 and §3), written once for each link family.

    A flat DHT's link rule is applied ring by ring up a node's {e chain}:
    the rings of the domains containing it, leaf first, root last. The
    flat DHT is the chain of the global ring alone, so every flat
    construction here is its Canonical version over a one-ring chain. *)

open Canon_overlay

val ring_row :
  Ring.t array ->
  Canon_idspace.Id.t ->
  self:int ->
  (Ring.t -> cap:int -> Link_set.t -> unit) ->
  int array
(** The ring-distance family (Symphony/Cacophony, ND-Chord/ND-Crescendo,
    Crescendo (Prox.)). [ring_row chain id ~self rule] is the row of node
    [self], with identifier [id]. In each ring of at least two members,
    [rule ring ~cap acc] adds the flat rule's targets at clockwise
    distance below [cap] (condition (b)): [Id.space] in the first ring,
    then the node's smallest successor distance in the rings passed. The
    ring's successor is linked too, {e before} the rule in the first
    ring and {e after} it above; a rule that redraws targets already
    linked (Symphony's) sees the order, so it fixes the random stream.
    Self-links and repeats are dropped. *)

val slot_row : Ring.t array -> slots:int -> (Ring.t -> int -> int option) -> int array
(** The prefix/XOR family (Kademlia/Kandy, CAN/Can-Can, Pastry/Canonical
    Pastry), whose links fall into [slots] disjoint id ranges that
    exclude the node: XOR buckets or Pastry cells. Ring by ring, [pick
    ring s] is asked for each slot [s] still empty, in increasing [s]; a
    slot is filled from the first ring with a member in it and never
    again. The targets are distinct; the row is in slot order. *)

val flat : Population.t -> (Ring.t array -> int -> int array) -> Overlay.t
(** [flat pop row] gives each node [v], in index order, the row
    [row [|global|] v] over the ring of the whole population; the
    hierarchy, if any, is ignored. *)

val hierarchical : Rings.t -> (Ring.t array -> int -> int array) -> Overlay.t
(** [hierarchical rings row] gives each node [v], in index order, the
    row [row chain v] over the rings of its domain chain. *)
