open Canon_idspace
open Canon_overlay

type t = {
  pop : Population.t;
  rank_of_node : int array;
  node_of_rank : int array;
  (* pointers.(node) = per level, (left, right) name-neighbours among
     nodes sharing that many numeric-id bits; the list ends at the
     level where the node is alone. *)
  pointers : (int * int) array array;
  ring : Ring.t;  (* every node, by numeric identifier *)
}

let size t = Array.length t.rank_of_node

let name_rank t node = t.rank_of_node.(node)

let node_of_rank t rank = t.node_of_rank.(rank)

let build pop =
  let n = Population.size pop in
  if n = 0 then invalid_arg "Skipnet.build: empty population";
  let ids = pop.Population.ids in
  (* Name order: hierarchy (leaf) order, then node index. Leaves are
     numbered left-to-right in the tree, so every domain is one
     contiguous rank interval. *)
  let node_of_rank = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare pop.Population.leaf_of_node.(a) pop.Population.leaf_of_node.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    node_of_rank;
  let rank_of_node = Array.make n 0 in
  Array.iteri (fun rank node -> rank_of_node.(node) <- rank) node_of_rank;
  (* Recursively refine the name-ordered ring by numeric-id bits. *)
  let levels : (int * int) list array = Array.make n [] in
  let rec refine members bit =
    let k = Array.length members in
    if k >= 2 then begin
      Array.iteri
        (fun i node ->
          let left = members.((i + k - 1) mod k) and right = members.((i + 1) mod k) in
          levels.(node) <- (left, right) :: levels.(node))
        members;
      if bit < Id.bits then begin
        let zeros = Array.of_list (List.filter (fun m -> (ids.(m) lsr (Id.bits - 1 - bit)) land 1 = 0) (Array.to_list members)) in
        let ones = Array.of_list (List.filter (fun m -> (ids.(m) lsr (Id.bits - 1 - bit)) land 1 = 1) (Array.to_list members)) in
        refine zeros (bit + 1);
        refine ones (bit + 1)
      end
    end
  in
  refine node_of_rank 0;
  let pointers = Array.map (fun l -> Array.of_list (List.rev l)) levels in
  let ring = Ring.of_members ~ids ~members:node_of_rank in
  { pop; rank_of_node; node_of_rank; pointers; ring }

let mean_degree t =
  let total = ref 0 in
  Array.iter
    (fun ptrs ->
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun (l, r) ->
          Hashtbl.replace seen l ();
          Hashtbl.replace seen r ())
        ptrs;
      total := !total + Hashtbl.length seen)
    t.pointers;
  Float.of_int !total /. Float.of_int (max 1 (size t))

(* A SkipNet route as a step over the one hop loop; its steps block
   only on a malformed pointer structure. *)
let route t ~kind ~src ~key step =
  Router.route ~kind ~level:(Population.link_level t.pop) ~n:(size t) ~src ~key step

let route_by_name t ~src ~dst =
  let target = t.rank_of_node.(dst) in
  let step u =
    if u = dst then Router.Arrived
    else begin
      let ru = t.rank_of_node.(u) in
      (* Best monotone step toward the target rank over all levels. *)
      let best = ref u and best_dist = ref (abs (target - ru)) in
      Array.iter
        (fun (l, r) ->
          let candidate = if target > ru then r else l in
          let rc = t.rank_of_node.(candidate) in
          (* monotone: candidate must lie in the open rank interval *)
          let between =
            if target > ru then rc > ru && rc <= target else rc < ru && rc >= target
          in
          if between && abs (target - rc) < !best_dist then begin
            best := candidate;
            best_dist := abs (target - rc)
          end)
        t.pointers.(u);
      if !best = u then Router.Blocked else Router.Forward !best
    end
  in
  route t ~kind:"skipnet.route_by_name" ~src ~key:t.pop.Population.ids.(dst) step

let route_by_numeric t ~src ~key =
  let ids = t.pop.Population.ids in
  (* A node matching [l] bits of the key forwards right along its
     level-[l] ring (in name order) toward the nearest node matching
     more; the route ends at it when no node matches [l + 1] bits. Nodes
     passed on one ring match fewer bits than any node of a deeper
     ring, so no node is visited twice. *)
  let step u =
    let l = Id.common_prefix_bits ids.(u) key in
    if l = Id.bits then Router.Arrived
    else begin
      let below = Id.bits - l - 1 in
      let start = Id.prefix key (l + 1) lsl below in
      if Ring.arc_count t.ring ~start ~len:(1 lsl below) = 0 then Router.Arrived
      else Router.Forward (snd t.pointers.(u).(l))
    end
  in
  route t ~kind:"skipnet.route_by_numeric" ~src ~key step
