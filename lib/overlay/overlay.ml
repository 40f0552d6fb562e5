open Canon_idspace

type clockwise = { offsets : int array; entries : int array }

type t = {
  population : Population.t;
  links : int array array;
  mutable clockwise : clockwise option;  (* built on the first [clockwise] call *)
}

let create pop ~links =
  let n = Population.size pop in
  if Array.length links <> n then invalid_arg "Overlay.create: adjacency size mismatch";
  (* One byte per node, set for the targets of the node being checked
     and cleared after it. (An int stamp per node would need no
     clearing, but its 8n bytes raised the peak heap of a benchmark
     building two n = 32768 overlays by 0.4 MiB.) *)
  let marked = Bytes.make n '\000' in
  Array.iteri
    (fun src targets ->
      Array.iter
        (fun dst ->
          if dst = src then invalid_arg "Overlay.create: self-link";
          if dst < 0 || dst >= n then invalid_arg "Overlay.create: target out of range";
          if Bytes.get marked dst <> '\000' then invalid_arg "Overlay.create: duplicate link";
          Bytes.set marked dst '\001')
        targets;
      Array.iter (fun dst -> Bytes.set marked dst '\000') targets)
    links;
  { population = pop; links; clockwise = None }

let population t = t.population

let size t = Population.size t.population

let id t node = t.population.Population.ids.(node)

let links t node = t.links.(node)

let degree t node = Array.length t.links.(node)

let degrees t = Array.map Array.length t.links

let mean_degree t =
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.links in
  Float.of_int total /. Float.of_int (max 1 (size t))

let has_link t src dst = Array.exists (Int.equal dst) t.links.(src)

let iter_links t f =
  Array.iteri (fun src targets -> Array.iter (fun dst -> f src dst) targets) t.links

(* --- the clockwise table ------------------------------------------- *)

let target_bits = 30

let target_mask = (1 lsl target_bits) - 1

let entry_distance e = e lsr target_bits

let entry_target e = e land target_mask

(* Writes the packed entries of [src]'s links into [into] from [pos],
   ascending, by insertion sort (link lists are short, and Chord's come
   already sorted). *)
let sort_clockwise ids ~src targets ~into ~pos =
  let id_src = ids.(src) in
  let len = Array.length targets in
  for i = 0 to len - 1 do
    let v = targets.(i) in
    let e = (Id.distance id_src ids.(v) lsl target_bits) lor v in
    let j = ref (pos + i) in
    while !j > pos && into.(!j - 1) > e do
      into.(!j) <- into.(!j - 1);
      decr j
    done;
    into.(!j) <- e
  done;
  (* Equal distances mean equal ids: the step would need a tie rule. *)
  for i = pos to pos + len - 1 do
    let d = entry_distance into.(i) in
    if d = 0 || (i > pos && d = entry_distance into.(i - 1)) then
      invalid_arg "Overlay.clockwise: colliding ids"
  done

let clockwise t =
  match t.clockwise with
  | Some table -> table
  | None ->
      let n = size t in
      if n >= 1 lsl target_bits then invalid_arg "Overlay.clockwise: n >= 2^30";
      let offsets = Array.make (n + 1) 0 in
      for u = 0 to n - 1 do
        offsets.(u + 1) <- offsets.(u) + Array.length t.links.(u)
      done;
      let entries = Array.make offsets.(n) 0 in
      for u = 0 to n - 1 do
        sort_clockwise t.population.Population.ids ~src:u t.links.(u) ~into:entries
          ~pos:offsets.(u)
      done;
      let table = { offsets; entries } in
      t.clockwise <- Some table;
      table
