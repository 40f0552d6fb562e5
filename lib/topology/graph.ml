type t = {
  n : int;
  adj : (int * float) list array; (* adjacency lists, built incrementally *)
}

let create n =
  if n <= 0 then invalid_arg "Graph.create: need at least one vertex";
  { n; adj = Array.make n [] }

let num_vertices g = g.n

let check_vertex g v =
  if v < 0 || v >= g.n then invalid_arg "Graph: vertex out of range"

let has_edge g u v =
  check_vertex g u;
  check_vertex g v;
  List.exists (fun (w, _) -> w = v) g.adj.(u)

let add_edge g u v w =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if w <= 0.0 then invalid_arg "Graph.add_edge: non-positive weight";
  if has_edge g u v then invalid_arg "Graph.add_edge: duplicate edge";
  g.adj.(u) <- (v, w) :: g.adj.(u);
  g.adj.(v) <- (u, w) :: g.adj.(v)

let neighbors g v =
  check_vertex g v;
  Array.of_list g.adj.(v)

(* A small array-based binary min-heap of (distance, vertex) pairs.
   Stale entries are skipped at pop time (lazy deletion). *)
module Heap = struct
  type t = {
    mutable dist : float array;
    mutable vertex : int array;
    mutable size : int;
  }

  let create cap = { dist = Array.make (max cap 4) 0.0; vertex = Array.make (max cap 4) 0; size = 0 }

  let swap h i j =
    let d = h.dist.(i) and v = h.vertex.(i) in
    h.dist.(i) <- h.dist.(j);
    h.vertex.(i) <- h.vertex.(j);
    h.dist.(j) <- d;
    h.vertex.(j) <- v

  let push h d v =
    if h.size = Array.length h.dist then begin
      let dist = Array.make (2 * h.size) 0.0 and vertex = Array.make (2 * h.size) 0 in
      Array.blit h.dist 0 dist 0 h.size;
      Array.blit h.vertex 0 vertex 0 h.size;
      h.dist <- dist;
      h.vertex <- vertex
    end;
    h.dist.(h.size) <- d;
    h.vertex.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.dist.((!i - 1) / 2) > h.dist.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let d = h.dist.(0) and v = h.vertex.(0) in
      h.size <- h.size - 1;
      h.dist.(0) <- h.dist.(h.size);
      h.vertex.(0) <- h.vertex.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.dist.(l) < h.dist.(!smallest) then smallest := l;
        if r < h.size && h.dist.(r) < h.dist.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      Some (d, v)
    end
end

let dijkstra_within g ~first ~count src =
  if first < 0 || count < 1 || first + count > g.n || src < first || src >= first + count then
    invalid_arg "Graph.dijkstra: source or vertex range out of bounds";
  let dist = Array.make count infinity in
  let heap = Heap.create count in
  dist.(src - first) <- 0.0;
  Heap.push heap 0.0 src;
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d <= dist.(u - first) then
          List.iter
            (fun (v, w) ->
              let i = v - first in
              if i >= 0 && i < count then begin
                let nd = d +. w in
                if nd < dist.(i) then begin
                  dist.(i) <- nd;
                  Heap.push heap nd v
                end
              end)
            g.adj.(u);
        loop ()
  in
  loop ();
  dist

let dijkstra g src = dijkstra_within g ~first:0 ~count:g.n src

let is_connected g =
  let dist = dijkstra g 0 in
  Array.for_all (fun d -> d < infinity) dist
