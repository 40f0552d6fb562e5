open Canon_idspace
open Canon_overlay

(* Links in the overlay's clockwise order. Each higher level's targets
   are strictly closer than the nearest node of every ring below it
   (condition (b), the LAN clique being the lowest ring), so the levels
   come root first, each by increasing distance, and the clique last,
   from the node's successor around its leaf ring. *)
let links_of_node rings node =
  let id = (Rings.population rings).Population.ids.(node) in
  let chain = Rings.chain rings node in
  let leaf_ring = Rings.ring rings chain.(0) in
  (* Higher levels: ordinary Crescendo merges; condition (b)'s cap
     starts at the distance to the nearest LAN peer. *)
  let buf = Array.make Id.bits 0 in
  let levels = ref [] and d_own = ref (Ring.successor_distance leaf_ring id) in
  for level = 1 to Array.length chain - 1 do
    let ring = Rings.ring rings chain.(level) in
    levels := Array.sub buf 0 (Chord.add_fingers ring id ~self:node ~below:!d_own buf 0) :: !levels;
    d_own := min !d_own (Ring.successor_distance ring id)
  done;
  (* Leaf level: the LAN clique. *)
  let self = Ring.rank_at_or_after leaf_ring id in
  let clique =
    Array.init (Ring.size leaf_ring - 1) (fun i -> Ring.nth_from leaf_ring self (i + 1))
  in
  Array.concat (!levels @ [ clique ])

let build rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rings node) in
  Overlay.create pop ~links
