open Canon_idspace
module Rng = Canon_rng.Rng
module IdSet = Set.Make (Int)

type scheme =
  | Random_ids
  | Bisection
  | Hierarchical

(* Clockwise successor of [id] within the set (wrapping); [id] itself is
   excluded. Requires a non-empty set not reduced to [id]. *)
let set_successor set id =
  match IdSet.find_first_opt (fun x -> x > id) set with
  | Some x -> x
  | None -> IdSet.min_elt set

(* The node responsible for point [r]: largest member <= r, wrapping. *)
let set_predecessor set r =
  match IdSet.find_last_opt (fun x -> x <= r) set with
  | Some x -> x
  | None -> IdSet.max_elt set

let fresh_random_id rng set =
  let rec go () =
    let id = Id.random rng in
    if IdSet.mem id set then go () else id
  in
  go ()

let bisection_choose rng set =
  if IdSet.is_empty set then Id.random rng
  else begin
    let count = IdSet.cardinal set in
    let r = Id.random rng in
    let anchor = set_predecessor set r in
    (* B bits such that ~log2(count) nodes share the prefix. *)
    let logn = max 1 (Id.log2_floor (max 2 count)) in
    let b = if count <= logn then 0 else min Id.bits (Id.log2_floor (count / logn)) in
    let shift = Id.bits - b in
    let lo = if b = 0 then 0 else Id.prefix anchor b lsl shift in
    let hi = if b = 0 then Id.space else lo + (1 lsl shift) in
    (* Largest partition among prefix-sharing members. *)
    let best = ref anchor and best_size = ref (-1) in
    let rec scan = function
      | None -> ()
      | Some x when x >= hi -> ()
      | Some x ->
          let size = Id.distance x (set_successor set x) in
          let size = if size = 0 then Id.space else size in
          if size > !best_size then begin
            best := x;
            best_size := size
          end;
          scan (IdSet.find_first_opt (fun y -> y > x) set)
    in
    scan (IdSet.find_first_opt (fun y -> y >= lo) set);
    if !best_size < 2 then fresh_random_id rng set
    else Id.add !best (!best_size / 2)
  end

(* "As far apart from the other nodes in the domain as possible":
   bisect the largest partition of the node's leaf-domain ring. *)
let leaf_bisect_choose rng leaf_set =
  if IdSet.is_empty leaf_set then Id.random rng
  else begin
    let best = ref 0 and best_size = ref (-1) in
    IdSet.iter
      (fun x ->
        let size = Id.distance x (set_successor leaf_set x) in
        let size = if size = 0 then Id.space else size in
        if size > !best_size then begin
          best := x;
          best_size := size
        end)
      leaf_set;
    Id.add !best (!best_size / 2)
  end

let select_ids rng scheme ~leaf_of_node =
  let n = Array.length leaf_of_node in
  let set = ref IdSet.empty in
  let out = Array.make n Id.zero in
  let leaf_sets : (int, IdSet.t) Hashtbl.t = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    let id =
      match scheme with
      | Random_ids -> fresh_random_id rng !set
      | Bisection ->
          let id = bisection_choose rng !set in
          if IdSet.mem id !set then fresh_random_id rng !set else id
      | Hierarchical ->
          let leaf = leaf_of_node.(node) in
          let leaf_set = Option.value ~default:IdSet.empty (Hashtbl.find_opt leaf_sets leaf) in
          let id = leaf_bisect_choose rng leaf_set in
          let id = if IdSet.mem id !set then fresh_random_id rng !set else id in
          Hashtbl.replace leaf_sets leaf (IdSet.add id leaf_set);
          id
    in
    out.(node) <- id;
    set := IdSet.add id !set
  done;
  out

(* The arc each of at least two nodes manages: from its id to the next
   id clockwise. *)
let partition_sizes ids =
  let n = Array.length ids in
  let sorted = Array.copy ids in
  Array.sort Int.compare sorted;
  Array.init n (fun i ->
      let d = Id.distance sorted.(i) sorted.((i + 1) mod n) in
      if d = 0 then invalid_arg "Balance.partition_ratio: duplicate ids";
      d)

let partition_ratio ids =
  if Array.length ids < 2 then Float.nan
  else begin
    let sizes = partition_sizes ids in
    let mx = Array.fold_left max sizes.(0) sizes in
    let mn = Array.fold_left min sizes.(0) sizes in
    Float.of_int mx /. Float.of_int (max 1 mn)
  end

let domain_partition_ratio ids ~members =
  partition_ratio (Array.map (fun m -> ids.(m)) members)
