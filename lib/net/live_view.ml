open Canon_overlay
open Canon_core
open Canon_sim

type construction =
  | Crescendo
  | Chord_global

type t = {
  m : Maintenance.t;
  construction : construction;
  mutable generation : int;
  (* Chord link sets recomputed from the live global ring, memoized
     within a generation (one membership event invalidates them all). *)
  memo : (int, int array) Hashtbl.t;
}

let crescendo m = { m; construction = Crescendo; generation = 0; memo = Hashtbl.create 1 }

let chord m = { m; construction = Chord_global; generation = 0; memo = Hashtbl.create 64 }

let generation t = t.generation

let bump t =
  t.generation <- t.generation + 1;
  if t.construction = Chord_global then Hashtbl.reset t.memo

let on_hook t (_ : Churn.hook) = bump t

let is_live t v = Maintenance.is_present t.m v

let rings t = Maintenance.rings t.m

let population t = Rings.population (Maintenance.rings t.m)

let links t v =
  if not (Maintenance.is_present t.m v) then [||]
  else
    match t.construction with
    | Crescendo -> Maintenance.links t.m v
    | Chord_global -> (
        match Hashtbl.find_opt t.memo v with
        | Some l -> l
        | None ->
            let rings = Maintenance.rings t.m in
            let pop = Rings.population rings in
            let global = Rings.ring_of_node_at_depth rings v 0 in
            let l = Chord.links_of_id global pop.Population.ids.(v) ~self:v in
            Hashtbl.add t.memo v l;
            l)
