open Canon_idspace
open Canon_hierarchy
open Canon_overlay

(* A node's row, built along its domain chain from [leaf] up.
   [fingers d ~below buf len] adds the node's Chord fingers in domain
   [d]'s ring closer than [below], and [gap d] is its successor distance
   there. The leaf level is plain Chord; at each merge above it only
   nodes strictly closer than the node's successor in its child ring
   are candidates (condition (b)), so every level's targets are closer
   than all targets below it. Levels are found leaf first, level [l] at
   [buf.(starts.(l)) .. buf.(starts.(l + 1) - 1)], each by increasing
   distance; copied root first, they make the row clockwise. *)
let fill tree leaf ~fingers ~gap buf starts =
  let root = Domain_tree.root tree in
  let rec level l d ~cap =
    starts.(l + 1) <- fingers d ~below:cap buf starts.(l);
    if d = root then l + 1 else level (l + 1) (Domain_tree.parent tree d) ~cap:(gap d)
  in
  let levels = level 0 leaf ~cap:Id.space in
  let row = Array.make starts.(levels) 0 and pos = ref 0 in
  for l = levels - 1 downto 0 do
    for i = starts.(l) to starts.(l + 1) - 1 do
      row.(!pos) <- buf.(i);
      incr pos
    done
  done;
  row

(* Each level takes at most one target per distance band
   [2^k, 2^(k+1)), and condition (b) puts every level's targets strictly
   closer than all targets of the levels below it. Sorted by distance,
   the targets therefore repeat a band at most once per level boundary:
   no more than [Id.bits + levels] of them. *)
let links_of_node rings node =
  let pop = Rings.population rings in
  let tree = pop.Population.tree and leaf = pop.Population.leaf_of_node.(node) in
  let id = pop.Population.ids.(node) in
  let levels = Domain_tree.depth tree leaf + 1 in
  let buf = Array.make (Id.bits + levels) 0 and starts = Array.make (levels + 1) 0 in
  let fingers d = Chord.add_fingers (Rings.ring rings d) id ~self:node in
  let gap d = Ring.successor_distance (Rings.ring rings d) id in
  fill tree leaf ~fingers ~gap buf starts

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
  let fingers d ~below buf len =
    let rank = next_rank.(d) in
    next_rank.(d) <- rank + 1;
    Chord.sweep_fingers sweeps.(d) ~rank ~below buf len
  in
  (* Read at the rank [fingers] has just swept. *)
  let gap d =
    let ring = Rings.ring rings d and rank = next_rank.(d) - 1 in
    let size = Ring.size ring in
    if size = 1 then Id.space
    else Id.distance (Ring.id_at ring rank) (Ring.id_at ring ((rank + 1) mod size))
  in
  let levels = Domain_tree.height tree + 1 in
  let buf = Array.make (Id.bits + levels) 0 and starts = Array.make (levels + 1) 0 in
  let links = Array.make (Population.size pop) [||] in
  for g = 0 to Ring.size global - 1 do
    let node = Ring.node_at global g in
    links.(node) <- fill tree pop.Population.leaf_of_node.(node) ~fingers ~gap buf starts
  done;
  links

let build rings = Overlay.create (Rings.population rings) ~links:(rows rings)
