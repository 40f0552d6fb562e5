open Canon_idspace
open Canon_overlay

(* The LAN clique in the leaf ring, from the node's successor around;
   Chord's fingers in the rings above it. *)
let build rings =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  let tree = pop.Population.tree in
  let buf =
    Array.make (Population.size pop + Id.bits + Canon_hierarchy.Domain_tree.height tree + 1) 0
  in
  Canonical.hierarchical rings (fun rings node ->
      let id = ids.(node) and leaf = pop.Population.leaf_of_node.(node) in
      Canonical.ring_row rings node
        (fun d ~cap buf len ->
          let ring = Rings.ring rings d in
          if d <> leaf then Chord.add_fingers ring id ~self:node ~below:cap buf len
          else begin
            let self = Ring.rank_at_or_after ring id and size = Ring.size ring in
            for i = 1 to size - 1 do
              buf.(len + i - 1) <- Ring.nth_from ring self i
            done;
            len + size - 1
          end)
        ~gap:(fun d -> Ring.successor_distance (Rings.ring rings d) id)
        buf)
