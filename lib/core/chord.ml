open Canon_idspace
open Canon_overlay

(* Finger targets move clockwise as k grows, so each distinct target is
   searched for once: after a target at distance [dist], every k with
   2^k <= dist lands on it again and is skipped. Once the search wraps
   (no member at distance >= 2^k), every further finger is the nearest
   member -- the holder of [id] itself (no link) or the k = 0 target
   already taken -- so the scan stops; it stops too at the first target
   at distance >= [below], since later ones are farther still. *)
let add_fingers ring id ~self ~below buf len =
  let size = Ring.size ring in
  if size = 0 then invalid_arg "Chord: empty ring";
  let len = ref len and k = ref 0 in
  while !k < Id.bits && 1 lsl !k < below do
    let rank = Ring.rank_at_or_after ring (Id.add id (1 lsl !k)) in
    let rank = if rank < size then rank else 0 in
    let dist = Id.distance id (Ring.id_at ring rank) in
    if dist < 1 lsl !k || dist >= below then k := Id.bits
    else begin
      let target = Ring.node_at ring rank in
      if target <> self then begin
        buf.(!len) <- target;
        incr len
      end;
      while !k < Id.bits && 1 lsl !k <= dist do
        incr k
      done
    end
  done;
  !len

let links_of_id ring id ~self =
  let buf = Array.make Id.bits 0 in
  let len = add_fingers ring id ~self ~below:Id.space buf 0 in
  Array.sub buf 0 len

let build pop =
  let n = Population.size pop in
  let global = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) in
  let links =
    Array.init n (fun node -> links_of_id global pop.Population.ids.(node) ~self:node)
  in
  Overlay.create pop ~links
