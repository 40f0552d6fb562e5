type t = { nodes : int array }

let hops t = Array.length t.nodes - 1

let destination t = t.nodes.(Array.length t.nodes - 1)

let edges t =
  Array.init (max 0 (hops t)) (fun i -> (t.nodes.(i), t.nodes.(i + 1)))

let latency t ~node_latency =
  let total = ref 0.0 in
  for i = 0 to hops t - 1 do
    total := !total +. node_latency t.nodes.(i) t.nodes.(i + 1)
  done;
  !total

let overlap_fraction ~reference p metric =
  if hops p <= 0 then 0.0
  else begin
    let ref_edges = Hashtbl.create (2 * max 1 (hops reference)) in
    Array.iter (fun e -> Hashtbl.replace ref_edges e ()) (edges reference);
    let shared = Hashtbl.mem ref_edges in
    match metric with
    | `Hops ->
        let overlapping = Array.fold_left
            (fun acc e -> if shared e then acc + 1 else acc) 0 (edges p)
        in
        Float.of_int overlapping /. Float.of_int (hops p)
    | `Latency oracle ->
        let total = ref 0.0 and overlapping = ref 0.0 in
        Array.iter
          (fun (u, v) ->
            let l = oracle u v in
            total := !total +. l;
            if shared (u, v) then overlapping := !overlapping +. l)
          (edges p);
        if !total = 0.0 then 0.0 else !overlapping /. !total
  end

let domain_crossings t ~domain_of_node =
  Array.fold_left
    (fun acc (u, v) -> if domain_of_node u <> domain_of_node v then acc + 1 else acc)
    0 (edges t)
