open Canon_idspace
open Canon_overlay

(* Writes [node]'s links into [buf] along its domain [chain], leaf level
   first, each level by increasing clockwise distance. Level [l]'s
   links end up at [starts.(l) .. starts.(l + 1) - 1]. *)
let fill rings node chain buf starts =
  let pop = Rings.population rings in
  let id = pop.Population.ids.(node) in
  (* Leaf level: plain Chord inside the leaf ring. *)
  let leaf_ring = Rings.ring rings chain.(0) in
  starts.(1) <- Chord.add_fingers leaf_ring id ~self:node ~below:Id.space buf 0;
  (* Bottom-up merges: at each higher level only nodes strictly closer
     than the closest own-ring node (condition (b)) are candidates. *)
  let d_own = ref (Ring.successor_distance leaf_ring id) in
  for level = 1 to Array.length chain - 1 do
    let ring = Rings.ring rings chain.(level) in
    starts.(level + 1) <- Chord.add_fingers ring id ~self:node ~below:!d_own buf starts.(level);
    d_own := min !d_own (Ring.successor_distance ring id)
  done

(* Each level takes at most one target per distance band
   [2^k, 2^(k+1)), and condition (b) puts every level's targets strictly
   closer than all targets of the levels below it. Sorted by distance,
   the targets therefore repeat a band at most once per level boundary:
   no more than [Id.bits + levels] of them. *)
let links_of_node rings node =
  let chain = Rings.chain rings node in
  let levels = Array.length chain in
  let buf = Array.make (Id.bits + levels) 0 and starts = Array.make (levels + 1) 0 in
  fill rings node chain buf starts;
  Array.sub buf 0 starts.(levels)

let build rings =
  let pop = Rings.population rings in
  let levels = Canon_hierarchy.Domain_tree.height pop.Population.tree + 1 in
  let buf = Array.make (Id.bits + levels) 0 and starts = Array.make (levels + 1) 0 in
  let links =
    Array.init (Population.size pop) (fun node ->
        let chain = Rings.chain rings node in
        fill rings node chain buf starts;
        (* Condition (b) again: the level blocks root first list the
           links by increasing clockwise distance, the overlay's order. *)
        let out = Array.make starts.(Array.length chain) 0 and pos = ref 0 in
        for level = Array.length chain - 1 downto 0 do
          for i = starts.(level) to starts.(level + 1) - 1 do
            out.(!pos) <- buf.(i);
            incr pos
          done
        done;
        out)
  in
  Overlay.create pop ~links
