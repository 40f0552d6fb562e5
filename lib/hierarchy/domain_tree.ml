type t = {
  parent : int array; (* root maps to -1 *)
  children : int array array;
  depth : int array;
  leaves : int array;
  height : int;
}

type spec =
  | Leaf
  | Node of spec list

let of_spec spec =
  (* First pass: count domains to size the arrays. *)
  let rec count = function
    | Leaf -> 1
    | Node [] -> invalid_arg "Domain_tree.of_spec: Node with no children"
    | Node kids -> List.fold_left (fun acc k -> acc + count k) 1 kids
  in
  let n = count spec in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  let children = Array.make n [||] in
  let next = ref 0 in
  let rec build spec parent_idx d =
    let idx = !next in
    incr next;
    parent.(idx) <- parent_idx;
    depth.(idx) <- d;
    (match spec with
    | Leaf -> ()
    | Node kids ->
        let kid_indices = List.map (fun k -> build k idx (d + 1)) kids in
        children.(idx) <- Array.of_list kid_indices);
    idx
  in
  let root = build spec (-1) 0 in
  assert (root = 0);
  let leaves =
    Array.of_list
      (List.filter (fun i -> Array.length children.(i) = 0) (List.init n Fun.id))
  in
  let height = Array.fold_left max 0 depth in
  { parent; children; depth; leaves; height }

let uniform_spec ~fanout ~levels =
  if fanout < 1 then invalid_arg "Domain_tree.uniform_spec: fanout < 1";
  if levels < 1 then invalid_arg "Domain_tree.uniform_spec: levels < 1";
  (* [levels] counts the number of ring levels: levels = 1 is a single
     leaf domain (flat DHT); each extra level adds one layer of fanout. *)
  let rec go remaining =
    if remaining = 1 then Leaf else Node (List.init fanout (fun _ -> go (remaining - 1)))
  in
  go levels

let num_domains t = Array.length t.parent

let root _ = 0

let parent t d =
  if d = 0 then invalid_arg "Domain_tree.parent: root has no parent";
  t.parent.(d)

let children t d = t.children.(d)

let depth t d = t.depth.(d)

let height t = t.height

let is_leaf t d = Array.length t.children.(d) = 0

let leaves t = t.leaves

let num_leaves t = Array.length t.leaves

let ancestor_at_depth t d k =
  if k < 0 || k > t.depth.(d) then invalid_arg "Domain_tree.ancestor_at_depth";
  let rec go d = if t.depth.(d) = k then d else go t.parent.(d) in
  go d

let lca t a b =
  let rec go a b =
    if a = b then a
    else if t.depth.(a) > t.depth.(b) then go t.parent.(a) b
    else if t.depth.(b) > t.depth.(a) then go a t.parent.(b)
    else go t.parent.(a) t.parent.(b)
  in
  go a b

let is_ancestor t ~anc ~desc =
  t.depth.(anc) <= t.depth.(desc) && ancestor_at_depth t desc t.depth.(anc) = anc

let subtree_leaves t d =
  let acc = ref [] in
  let rec go d =
    if is_leaf t d then acc := d :: !acc
    else Array.iter go t.children.(d)
  in
  go d;
  Array.of_list (List.rev !acc)
