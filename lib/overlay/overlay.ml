open Canon_idspace

type t = {
  population : Population.t;
  links : int array array;  (* each row ascending by clockwise distance *)
}

let shared_id () = invalid_arg "Overlay.create: linked nodes share an id"

let create pop ~links =
  let n = Population.size pop in
  if Array.length links <> n then invalid_arg "Overlay.create: adjacency size mismatch";
  let ids = pop.Population.ids in
  (* One byte per node, set for the targets of the node being checked
     and cleared after it. (An int stamp per node would need no
     clearing, but its 8n bytes raised the peak heap of a benchmark
     building two n = 32768 overlays by 0.4 MiB.) *)
  let marked = Bytes.make n '\000' in
  Array.iteri
    (fun src targets ->
      let id_src = ids.(src) in
      let sorted = ref true and prev = ref 0 in
      Array.iter
        (fun dst ->
          if dst = src then invalid_arg "Overlay.create: self-link";
          if dst < 0 || dst >= n then invalid_arg "Overlay.create: target out of range";
          if Bytes.get marked dst <> '\000' then invalid_arg "Overlay.create: duplicate link";
          Bytes.set marked dst '\001';
          (* A link at distance 0, or two at one distance, means equal
             ids. *)
          let d = Id.distance id_src ids.(dst) in
          if d = 0 || d = !prev then shared_id ();
          if d < !prev then sorted := false;
          prev := d)
        targets;
      Array.iter (fun dst -> Bytes.set marked dst '\000') targets;
      if not !sorted then begin
        (* In a row out of order equal distances need not be neighbours.
           A sort compares every two elements that end up adjacent, so
           its comparison finds them. *)
        let distance dst = Id.distance id_src ids.(dst) in
        Array.stable_sort
          (fun a b ->
            let c = Int.compare (distance a) (distance b) in
            if c = 0 then shared_id () else c)
          targets
      end)
    links;
  { population = pop; links }

let population t = t.population

let size t = Population.size t.population

let id t node = t.population.Population.ids.(node)

let links t node = t.links.(node)

let degrees t = Array.map Array.length t.links

let mean_degree t =
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.links in
  Float.of_int total /. Float.of_int (max 1 (size t))

let has_link t src dst = Array.exists (Int.equal dst) t.links.(src)

let iter_links t f =
  Array.iteri (fun src targets -> Array.iter (fun dst -> f src dst) targets) t.links
