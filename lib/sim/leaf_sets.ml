open Canon_overlay

let successors rings ~node ~width =
  if width < 0 then invalid_arg "Leaf_sets.successors: negative width";
  let pop = Rings.population rings in
  let id = pop.Population.ids.(node) in
  Array.map
    (fun domain ->
      let ring = Rings.ring rings domain in
      let size = Ring.size ring in
      let take = min width (max 0 (size - 1)) in
      let out = Array.make take 0 in
      let current = ref id in
      for i = 0 to take - 1 do
        let succ = Ring.successor_of_id ring !current in
        out.(i) <- succ;
        current := pop.Population.ids.(succ)
      done;
      out)
    (Rings.chain rings node)
