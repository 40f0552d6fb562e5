open Canon_hierarchy

type t = {
  population : Population.t;
  rings : Ring.t array; (* indexed by domain *)
}

(* One sort for every ring: the root ring orders the present nodes, and
   each other domain's ring, sized by a counting pass, is filled from it
   in that order, so every insert lands past the ring's last member. *)
let build_partial pop ~present =
  let tree = pop.Population.tree and ids = pop.Population.ids in
  let leaf_of_node = pop.Population.leaf_of_node in
  let root = Domain_tree.root tree in
  let global = Ring.of_members ~ids ~members:present in
  let count = Array.make (Domain_tree.num_domains tree) 0 in
  let rec credit d =
    if d <> root then begin
      count.(d) <- count.(d) + 1;
      credit (Domain_tree.parent tree d)
    end
  in
  Array.iter (fun node -> credit leaf_of_node.(node)) present;
  let rings =
    Array.mapi (fun d c -> if d = root then global else Ring.create ~capacity:c) count
  in
  let rec deal ~id ~node d =
    if d <> root then begin
      Ring.insert rings.(d) ~id ~node;
      deal ~id ~node (Domain_tree.parent tree d)
    end
  in
  for rank = 0 to Ring.size global - 1 do
    let node = Ring.node_at global rank in
    deal ~id:ids.(node) ~node leaf_of_node.(node)
  done;
  { population = pop; rings }

let build pop = build_partial pop ~present:(Array.init (Population.size pop) Fun.id)

let population t = t.population

let ring t d = t.rings.(d)

let ring_of_node_at_depth t node k =
  t.rings.(Population.domain_of_node_at_depth t.population node k)

let chain t node =
  let tree = t.population.Population.tree in
  let leaf = t.population.Population.leaf_of_node.(node) in
  let depth = Domain_tree.depth tree leaf in
  let out = Array.make (depth + 1) leaf in
  let rec go d i =
    out.(i) <- d;
    if d <> Domain_tree.root tree then go (Domain_tree.parent tree d) (i + 1)
  in
  go leaf 0;
  out

let add_node t node =
  let id = t.population.Population.ids.(node) in
  Array.iter (fun domain -> Ring.insert t.rings.(domain) ~id ~node) (chain t node)

let remove_node t node =
  let id = t.population.Population.ids.(node) in
  Array.iter (fun domain -> Ring.remove t.rings.(domain) ~id) (chain t node)

let responsible t ~domain ~key =
  let r = t.rings.(domain) in
  if Ring.size r = 0 then invalid_arg "Rings.responsible: empty domain";
  Ring.predecessor_of_id r key
