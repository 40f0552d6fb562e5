type t = string list

let of_string s =
  if s = "" then []
  else List.rev (String.split_on_char '.' s)

let to_string = function
  | [] -> ""
  | path -> String.concat "." (List.rev path)

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | a :: p', b :: q' -> String.equal a b && is_prefix p' q'

(* A trie over name components, children kept sorted for determinism. *)
type trie = { mutable kids : (string * trie) list }

let new_trie () = { kids = [] }

let rec insert trie = function
  | [] -> ()
  | label :: rest ->
      let child =
        match List.assoc_opt label trie.kids with
        | Some c -> c
        | None ->
            let c = new_trie () in
            trie.kids <- (label, c) :: trie.kids;
            c
      in
      insert child rest

let rec sort_trie trie =
  trie.kids <- List.sort (fun (a, _) (b, _) -> String.compare a b) trie.kids;
  List.iter (fun (_, c) -> sort_trie c) trie.kids

type namespace = {
  tree : Domain_tree.t;
  by_name : (string, int) Hashtbl.t;
}

let namespace_of_leaves leaves =
  if leaves = [] then invalid_arg "Hname.namespace_of_leaves: empty";
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b && is_prefix a b && List.length a < List.length b then
            invalid_arg
              (Printf.sprintf "Hname.namespace_of_leaves: %S is a prefix of %S"
                 (to_string a) (to_string b)))
        leaves)
    leaves;
  let root = new_trie () in
  List.iter (insert root) leaves;
  sort_trie root;
  (* Walk the trie in the same preorder as Domain_tree.of_spec numbers
     domains, recording both the spec and the index of every name. *)
  let by_name = Hashtbl.create 64 in
  let counter = ref 0 in
  let rec walk trie path =
    let idx = !counter in
    incr counter;
    Hashtbl.replace by_name (to_string (List.rev path)) idx;
    match trie.kids with
    | [] -> Domain_tree.Leaf
    | kids -> Domain_tree.Node (List.map (fun (label, c) -> walk c (label :: path)) kids)
  in
  let spec = walk root [] in
  let tree = Domain_tree.of_spec spec in
  { tree; by_name }

let tree ns = ns.tree

let domain_of_name ns name =
  match Hashtbl.find_opt ns.by_name (to_string name) with
  | Some idx -> idx
  | None -> raise Not_found
