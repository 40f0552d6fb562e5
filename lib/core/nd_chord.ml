open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

let add_bucket_links rng ring id ~cap acc =
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    let lo = 1 lsl !k in
    let len = min (lo) (cap - lo) in
    (* Arc of clockwise distances [lo, lo+len) from id, where
       lo + len <= min(2^(k+1), cap). *)
    let start = Id.add id lo in
    let count = Ring.arc_count ring ~start ~len in
    if count > 0 then
      Link_set.add acc
        (Ring.nth_from ring (Ring.rank_at_or_after ring start) (Rng.int_below rng count));
    incr k
  done

let build rng pop =
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let global = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
  let links =
    Array.init n (fun node ->
        let id = ids.(node) in
        let acc = Link_set.create ~self:node in
        if n >= 2 then begin
          Link_set.add acc (Ring.successor_of_id global id);
          add_bucket_links rng global id ~cap:Id.space acc
        end;
        Link_set.to_array acc)
  in
  Overlay.create pop ~links
