open Canon_idspace
open Canon_hierarchy
open Canon_overlay

type spread =
  | Flat
  | Sibling

let spread_to_string = function Flat -> "flat" | Sibling -> "sibling"

(* Rank of the member responsible for [key] under the paper's
   closest-at-or-below rule (the rank-level twin of
   [Ring.predecessor_of_id]). Requires a non-empty ring. *)
let responsible_rank ring ~key =
  let size = Ring.size ring in
  let r = Ring.rank_at_or_after ring key in
  if r < size && Id.equal (Ring.id_at ring r) key then r
  else (r - 1 + size) mod size

(* Walk [ring] clockwise starting at the LIVE member responsible for
   [key], offering each live member not yet [taken] to [f]; stop after
   one full turn or when [f] returns [false].

   When the full-ring responsible is dead, the walk starts at the
   nearest live member counter-clockwise from it — the node that IS
   responsible on the ring restricted to live members. This keeps
   placement identical to placement once the dead members are actually
   removed from the ring. *)
let walk_ring ring ~key ~alive ~taken f =
  let size = Ring.size ring in
  if size > 0 then begin
    let r0 = ref (responsible_rank ring ~key) in
    let back = ref 0 in
    while !back < size && not (alive (Ring.node_at ring !r0)) do
      r0 := (!r0 - 1 + size) mod size;
      incr back
    done;
    let continue = ref true in
    let i = ref 0 in
    while !continue && !i < size do
      let v = Ring.node_at ring ((!r0 + !i) mod size) in
      if alive v && not (taken v) then continue := f v;
      incr i
    done
  end

(* Offer [visit] every leaf domain outside the subtree of [from], nearest
   first: for each ancestor of [from] from the bottom up, the leaves of
   its other children in [children] order, each child's leaves
   depth-first. Stops as soon as [visit] returns [false], so the cost is
   the leaves actually visited plus the ancestor chain, not the whole
   tree. *)
let iter_nearest_leaves tree ~from visit =
  (* Each walker returns [false] once [visit] has asked to stop. *)
  let rec leaves_of d =
    if Domain_tree.is_leaf tree d then visit d else children_of d ~skip:(-1)
  and children_of p ~skip =
    let kids = Domain_tree.children tree p in
    let rec go i =
      i >= Array.length kids || ((kids.(i) = skip || leaves_of kids.(i)) && go (i + 1))
    in
    go 0
  in
  let rec up d =
    d = Domain_tree.root tree
    ||
    let p = Domain_tree.parent tree d in
    children_of p ~skip:d && up p
  in
  ignore (up from)

let compute ?(alive = fun _ -> true) rings ~spread ~k ~domain ~key =
  if k < 1 then invalid_arg "Replica_set.compute: k must be >= 1";
  let pop = Rings.population rings in
  let tree = pop.Population.tree in
  if domain < 0 || domain >= Domain_tree.num_domains tree then
    invalid_arg "Replica_set.compute: domain out of range";
  (* At most [k] holders: a list is the cheapest set. *)
  let holders = ref [] in
  let count = ref 0 in
  let taken v = List.mem v !holders in
  let take v =
    holders := v :: !holders;
    incr count
  in
  let first_live ring =
    let found = ref None in
    walk_ring ring ~key ~alive ~taken (fun v ->
        found := Some v;
        false);
    !found
  in
  let fill ring =
    walk_ring ring ~key ~alive ~taken (fun v ->
        take v;
        !count < k)
  in
  (match spread with
  | Flat -> fill (Rings.ring rings domain)
  | Sibling ->
      let from =
        match first_live (Rings.ring rings domain) with
        | Some p ->
            take p;
            pop.Population.leaf_of_node.(p)
        | None ->
            (* The whole storage domain is dead or empty: spread from the
               domain itself. Every leaf inside it has no live node, so
               this visits the live leaves in the same order as starting
               from any one of its leaves would. *)
            domain
      in
      (* One replica per distinct leaf domain, nearest siblings first.
         Every leaf is visited at most once and never the primary's, so
         each live leaf contributes a node of its own. *)
      if !count < k then
        iter_nearest_leaves tree ~from (fun l ->
            (match first_live (Rings.ring rings l) with Some v -> take v | None -> ());
            !count < k);
      (* More replicas wanted than live leaf domains: degrade to flat on
         the global ring rather than under-replicate. *)
      if !count < k then fill (Rings.ring rings (Domain_tree.root tree)));
  Array.of_list (List.rev !holders)
