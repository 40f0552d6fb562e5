open Canon_idspace
open Canon_hierarchy
open Canon_overlay

(* Each level takes at most one target per distance band
   [2^k, 2^(k+1)), and condition (b) puts every level's targets strictly
   closer than all targets of the levels below it. Sorted by distance,
   the targets therefore repeat a band at most once per level boundary:
   no more than [Id.bits + levels] of them. *)
let links_of_node rings node =
  let pop = Rings.population rings in
  let tree = pop.Population.tree and id = pop.Population.ids.(node) in
  let levels = Domain_tree.depth tree pop.Population.leaf_of_node.(node) + 1 in
  Canonical.ring_row rings node
    (fun d ~cap buf len -> Chord.add_fingers (Rings.ring rings d) id ~self:node ~below:cap buf len)
    ~gap:(fun d -> Ring.successor_distance (Rings.ring rings d) id)
    (Array.make (Id.bits + levels) 0)

(* One sweep per ring: nodes are met in global rank order, which is
   every ring's rank order, so the next member of each ring is the next
   node met in it, and its rank there only grows. *)
let rows rings =
  let pop = Rings.population rings in
  let tree = pop.Population.tree in
  let global = Rings.ring rings (Domain_tree.root tree) in
  let nd = Domain_tree.num_domains tree in
  let sweeps = Array.init nd (fun d -> Chord.sweep (Rings.ring rings d)) in
  let next_rank = Array.make nd 0 in
  let fingers d ~cap buf len =
    let rank = next_rank.(d) in
    next_rank.(d) <- rank + 1;
    Chord.sweep_fingers sweeps.(d) ~rank ~below:cap buf len
  in
  (* Read at the rank [fingers] has just swept, in a ring of at least
     two members. *)
  let gap d =
    let ring = Rings.ring rings d and rank = next_rank.(d) - 1 in
    Id.distance (Ring.id_at ring rank) (Ring.id_at ring ((rank + 1) mod Ring.size ring))
  in
  let buf = Array.make (Id.bits + Domain_tree.height tree + 1) 0 in
  let links = Array.make (Population.size pop) [||] in
  for g = 0 to Ring.size global - 1 do
    let node = Ring.node_at global g in
    links.(node) <- Canonical.ring_row rings node fingers ~gap buf
  done;
  links

let build rings = Overlay.create (Rings.population rings) ~links:(rows rings)
