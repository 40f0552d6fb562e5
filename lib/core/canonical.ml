open Canon_idspace
open Canon_overlay

let ring_row chain id ~self rule =
  let acc = Link_set.create ~self in
  let cap = ref Id.space in
  Array.iteri
    (fun level ring ->
      if Ring.size ring >= 2 then begin
        let succ = Ring.successor_of_id ring id in
        if level = 0 then Link_set.add acc succ;
        rule ring ~cap:!cap acc;
        if level > 0 then Link_set.add acc succ;
        cap := min !cap (Ring.successor_distance ring id)
      end)
    chain;
  Link_set.to_array acc

let slot_row chain ~slots pick =
  let target = Array.make slots (-1) in
  Array.iter
    (fun ring ->
      for s = 0 to slots - 1 do
        if target.(s) < 0 then
          match pick ring s with Some v -> target.(s) <- v | None -> ()
      done)
    chain;
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
  let chain = [| Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) |] in
  Overlay.create pop ~links:(Array.init n (row chain))

let hierarchical rings row =
  let pop = Rings.population rings in
  Overlay.create pop
    ~links:
      (Array.init (Population.size pop) (fun v ->
           row (Array.map (Rings.ring rings) (Rings.chain rings v)) v))
