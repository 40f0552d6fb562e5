open Canon_idspace
open Canon_overlay

let links_of_node rings node =
  let pop = Rings.population rings in
  let id = pop.Population.ids.(node) in
  let chain = Rings.chain rings node in
  (* Each level takes at most one target per distance band
     [2^k, 2^(k+1)), and condition (b) puts every level's targets
     strictly closer than all targets of the levels below it. Sorted by
     distance, the targets therefore repeat a band at most once per
     level boundary: no more than [Id.bits + levels] of them. *)
  let buf = Array.make (Id.bits + Array.length chain) 0 in
  (* Leaf level: plain Chord inside the leaf ring. *)
  let leaf_ring = Rings.ring rings chain.(0) in
  let len = ref (Chord.add_fingers leaf_ring id ~self:node ~below:Id.space buf 0) in
  (* Bottom-up merges: at each higher level only nodes strictly closer
     than the closest own-ring node (condition (b)) are candidates. *)
  let d_own = ref (Ring.successor_distance leaf_ring id) in
  for level = 1 to Array.length chain - 1 do
    let ring = Rings.ring rings chain.(level) in
    len := Chord.add_fingers ring id ~self:node ~below:!d_own buf !len;
    d_own := min !d_own (Ring.successor_distance ring id)
  done;
  Array.sub buf 0 !len

let build rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rings node) in
  Overlay.create pop ~links
