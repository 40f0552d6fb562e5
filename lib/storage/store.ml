open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core

type stored =
  | Content of { value : string; storage_domain : int; access_domain : int }
  | Pointer of { holder : int; storage_domain : int; access_domain : int }
      (** [holder] is the node physically storing the content *)

type t = {
  rings : Rings.t;
  tables : (Id.t, stored list) Hashtbl.t array; (* per node *)
}

type hit = {
  value : string;
  found_at : int;
  via_pointer : int option;
  path : Route.t;
}

let create rings =
  let n = Population.size (Rings.population rings) in
  { rings; tables = Array.init n (fun _ -> Hashtbl.create 8) }


let add_entry t node key entry =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.tables.(node) key) in
  Hashtbl.replace t.tables.(node) key (entry :: existing)

let storage_node t ~domain ~key = Rings.responsible t.rings ~domain ~key

let insert t ~publisher ~key ~value ~storage_domain ~access_domain =
  let pop = Rings.population t.rings in
  let tree = pop.Population.tree in
  let leaf = pop.Population.leaf_of_node.(publisher) in
  if not (Domain_tree.is_ancestor tree ~anc:storage_domain ~desc:leaf) then
    invalid_arg "Store.insert: storage domain does not contain the publisher";
  if not (Domain_tree.is_ancestor tree ~anc:access_domain ~desc:storage_domain) then
    invalid_arg "Store.insert: access domain does not contain the storage domain";
  let holder = storage_node t ~domain:storage_domain ~key in
  add_entry t holder key (Content { value; storage_domain; access_domain });
  if access_domain <> storage_domain then begin
    let pointer_node = storage_node t ~domain:access_domain ~key in
    if pointer_node <> holder then
      add_entry t pointer_node key (Pointer { holder; storage_domain; access_domain })
  end

(* Visibility (paper §4.1): an entry answers a query from [querier]
   observed at node [m] iff its access domain contains lca(m, querier). *)
let visible t ~querier ~at entry =
  let pop = Rings.population t.rings in
  let tree = pop.Population.tree in
  let level = Population.lca_of_nodes pop querier at in
  let access = match entry with
    | Content { access_domain; _ } | Pointer { access_domain; _ } -> access_domain
  in
  Domain_tree.is_ancestor tree ~anc:access ~desc:level

let hits_at t ~querier ~key node =
  match Hashtbl.find_opt t.tables.(node) key with
  | None -> []
  | Some entries -> List.filter (visible t ~querier ~at:node) entries

let hit_of_entry ~found_at ~path = function
  | Content { value; _ } -> { value; found_at; via_pointer = None; path }
  | Pointer { holder; _ } ->
      (* Resolve the indirection: the pointer node fetches the content
         from its holder before answering. *)
      { value = "<resolved>"; found_at; via_pointer = Some holder; path }

let resolve_pointer t key holder =
  match Hashtbl.find_opt t.tables.(holder) key with
  | None -> None
  | Some entries ->
      List.find_map
        (function Content { value; _ } -> Some value | Pointer _ -> None)
        entries

(* The first [Some] that [f node path] gives along the greedy route
   from [querier] toward [key], [path] being the route up to [node]. *)
let first_on_route overlay ~querier ~key f =
  let nodes = (Router.greedy_clockwise overlay ~src:querier ~key).Route.nodes in
  let rec go i =
    if i >= Array.length nodes then None
    else
      match f nodes.(i) Route.{ nodes = Array.sub nodes 0 (i + 1) } with
      | Some _ as hit -> hit
      | None -> go (i + 1)
  in
  go 0

let complete_hit t key h =
  match h.via_pointer with
  | None -> Some h
  | Some holder -> (
      match resolve_pointer t key holder with
      | Some value -> Some { h with value }
      | None -> None)

let lookup t overlay ~querier ~key =
  Option.bind
    (first_on_route overlay ~querier ~key (fun node path ->
         match hits_at t ~querier ~key node with
         | [] -> None
         | entry :: _ -> Some (hit_of_entry ~found_at:node ~path entry)))
    (complete_hit t key)

let probe t ~querier ~key ~node =
  match hits_at t ~querier ~key node with
  | [] -> None
  | entry :: _ -> (
      match entry with
      | Content { value; access_domain; _ } -> Some (value, access_domain)
      | Pointer { holder; access_domain; _ } -> (
          match resolve_pointer t key holder with
          | Some value -> Some (value, access_domain)
          | None -> None))

let remove t ~key ~storage_domain ~access_domain =
  let holder = storage_node t ~domain:storage_domain ~key in
  let keep = function
    | Content { storage_domain = s; access_domain = a; _ }
    | Pointer { storage_domain = s; access_domain = a; _ } ->
        not (s = storage_domain && a = access_domain)
  in
  let prune node =
    match Hashtbl.find_opt t.tables.(node) key with
    | None -> ()
    | Some entries -> (
        match List.filter keep entries with
        | [] -> Hashtbl.remove t.tables.(node) key
        | kept -> Hashtbl.replace t.tables.(node) key kept)
  in
  prune holder;
  if access_domain <> storage_domain then
    prune (storage_node t ~domain:access_domain ~key)
