open Canon_idspace
open Canon_hierarchy
open Canon_overlay

(* Domain [d]'s level goes to [buf] from [len], below [cap]; the levels
   above it are written next, and the row they return is filled root
   first, so this level lands just before the one below it. A top-level
   function, not a closure, so a row allocates nothing but itself. *)
let rec merge rings tree rule gap buf d len cap =
  let live = Ring.size (Rings.ring rings d) >= 2 in
  let stop = if live then rule d ~cap buf len else len in
  let row =
    if d = Domain_tree.root tree then Array.make stop 0
    else
      merge rings tree rule gap buf (Domain_tree.parent tree d) stop
        (if live then Int.min cap (gap d) else cap)
  in
  Array.blit buf len row (Array.length row - stop) (stop - len);
  row

let ring_row rings node rule ~gap buf =
  let pop = Rings.population rings in
  merge rings pop.Population.tree rule gap buf pop.Population.leaf_of_node.(node) 0 Id.space

let rec add buf ~from len v =
  if from = len then begin
    buf.(len) <- v;
    len + 1
  end
  else if buf.(from) = v then len
  else add buf ~from:(from + 1) len v

let successor_row rings rule =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  let buf = Array.make ((Id.bits + 1) * (Domain_tree.height pop.Population.tree + 1)) 0 in
  fun node ->
    let id = ids.(node) and leaf = pop.Population.leaf_of_node.(node) in
    ring_row rings node
      (fun d ~cap buf len ->
        let ring = Rings.ring rings d in
        let succ = Ring.successor_of_id ring id in
        if d = leaf then rule ring id ~cap buf ~from:len (add buf ~from:len len succ)
        else
          let stop = rule ring id ~cap buf ~from:len len in
          if Id.distance id ids.(succ) < cap then add buf ~from:len stop succ else stop)
      ~gap:(fun d -> Ring.successor_distance (Rings.ring rings d) id)
      buf

let slot_row rings node ~slots pick =
  let target = Array.make slots (-1) in
  Array.iter
    (fun d ->
      let ring = Rings.ring rings d in
      for s = 0 to slots - 1 do
        if target.(s) < 0 then
          match pick ring s with Some v -> target.(s) <- v | None -> ()
      done)
    (Rings.chain rings node);
  let len = ref 0 in
  Array.iter
    (fun v ->
      if v >= 0 then begin
        target.(!len) <- v;
        incr len
      end)
    target;
  Array.sub target 0 !len

let flat pop row =
  let n = Population.size pop in
  let one_level =
    { pop with Population.tree = Domain_tree.of_spec Domain_tree.Leaf; leaf_of_node = Array.make n 0 }
  in
  Overlay.create pop ~links:(Array.init n (row (Rings.build one_level)))

let hierarchical rings row =
  let pop = Rings.population rings in
  Overlay.create pop ~links:(Array.init (Population.size pop) (row rings))
