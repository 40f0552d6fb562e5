open Canon_idspace
open Canon_hierarchy

type t = {
  ids : Id.t array;
  tree : Domain_tree.t;
  leaf_of_node : int array;
  attach : int array option;
}

let size t = Array.length t.ids

let unique_ids rng n =
  let seen = Hashtbl.create (2 * n) in
  let ids = Array.make n Id.zero in
  let filled = ref 0 in
  while !filled < n do
    let id = Id.random rng in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      ids.(!filled) <- id;
      incr filled
    end
  done;
  ids

let create rng ~tree ~policy ~n =
  let ids = unique_ids rng n in
  let leaf_of_node = Placement.assign rng tree policy ~n in
  { ids; tree; leaf_of_node; attach = None }

let create_with_attach rng ~tree ~leaf_to_attach ~n =
  let ids = unique_ids rng n in
  let leaf_of_node = Placement.assign rng tree Placement.Uniform ~n in
  let attach = Array.map leaf_to_attach leaf_of_node in
  { ids; tree; leaf_of_node; attach = Some attach }

let domain_of_node_at_depth t node k =
  let leaf = t.leaf_of_node.(node) in
  let leaf_depth = Domain_tree.depth t.tree leaf in
  Domain_tree.ancestor_at_depth t.tree leaf (min k leaf_depth)

let lca_of_nodes t a b = Domain_tree.lca t.tree t.leaf_of_node.(a) t.leaf_of_node.(b)

let link_level t a b = Domain_tree.depth t.tree (lca_of_nodes t a b)
