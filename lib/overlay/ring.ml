open Canon_idspace

type t = {
  mutable ids : int array; (* sorted ascending, first [size] slots *)
  mutable nodes : int array; (* node index at the same rank *)
  mutable size : int;
}

let of_members ~ids ~members =
  let k = Array.length members in
  let order = Array.copy members in
  Array.sort (fun a b -> Id.compare ids.(a) ids.(b)) order;
  let ring_ids = Array.make (max k 1) 0 and ring_nodes = Array.make (max k 1) 0 in
  Array.iteri
    (fun rank node ->
      ring_ids.(rank) <- ids.(node);
      ring_nodes.(rank) <- node)
    order;
  for i = 1 to k - 1 do
    if ring_ids.(i) = ring_ids.(i - 1) then
      invalid_arg "Ring.of_members: duplicate identifiers"
  done;
  { ids = ring_ids; nodes = ring_nodes; size = k }

let size t = t.size

let members t = Array.sub t.nodes 0 t.size

let id_at t rank = t.ids.(rank)

let node_at t rank = t.nodes.(rank)

let require_non_empty t = if size t = 0 then invalid_arg "Ring: empty ring"

(* Smallest rank whose id is >= q, or [size] if none. *)
let lower_bound t q =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ids.(mid) >= q then hi := mid else lo := mid + 1
  done;
  !lo

let contains t q =
  let i = lower_bound t q in
  i < size t && t.ids.(i) = q

let first_at_or_after t q =
  require_non_empty t;
  let i = lower_bound t q in
  if i < size t then t.nodes.(i) else t.nodes.(0)

let successor_of_id t q = first_at_or_after t (Id.add q 1)

let predecessor_of_id t q =
  require_non_empty t;
  let i = lower_bound t q in
  if i < size t && t.ids.(i) = q then t.nodes.(i)
  else if i = 0 then t.nodes.(size t - 1)
  else t.nodes.(i - 1)

let successor_distance t id =
  require_non_empty t;
  if size t = 1 then Id.space
  else begin
    (* Rank of the first id strictly after [id], wrapping. *)
    let i = lower_bound t (Id.add id 1) in
    let succ_id = if i < size t then t.ids.(i) else t.ids.(0) in
    let d = Id.distance id succ_id in
    if d = 0 then Id.space else d
  end

let rank_at_or_after = lower_bound

let arc_count t ~start ~len =
  if len < 0 || len > Id.space then invalid_arg "Ring.arc_count: bad length";
  if len = 0 then 0
  else if len = Id.space then size t
  else begin
    let lo = lower_bound t start in
    if start + len <= Id.space then lower_bound t (start + len) - lo
    else (* wraps past 0 *)
      size t - lo + lower_bound t (start + len - Id.space)
  end

let arc_nth t ~start ~len i =
  if i < 0 || i >= arc_count t ~start ~len then invalid_arg "Ring.arc_nth: index out of arc";
  let lo = lower_bound t start in
  let rank = lo + i in
  t.nodes.(if rank < size t then rank else rank - size t)

let finger t id d =
  require_non_empty t;
  if d < 1 then invalid_arg "Ring.finger: distance must be >= 1";
  let i = lower_bound t (Id.add id d) in
  let i = if i < size t then i else 0 in
  if t.ids.(i) = id then None else Some t.nodes.(i)

(* Moves [len] ints from [src] to [dst] (possibly overlapping, same
   array) with plain typed stores: [Array.blit] on a major-heap array
   goes through the write barrier for every element, even for ints. *)
let move_ints (src : int array) src_pos (dst : int array) dst_pos len =
  if dst_pos > src_pos then
    for i = len - 1 downto 0 do
      dst.(dst_pos + i) <- src.(src_pos + i)
    done
  else
    for i = 0 to len - 1 do
      dst.(dst_pos + i) <- src.(src_pos + i)
    done

let insert t ~id ~node =
  let rank = lower_bound t id in
  if rank < t.size && t.ids.(rank) = id then invalid_arg "Ring.insert: duplicate identifier";
  if t.size = Array.length t.ids then begin
    let cap = 2 * t.size in
    let ids' = Array.make cap 0 and nodes' = Array.make cap 0 in
    move_ints t.ids 0 ids' 0 t.size;
    move_ints t.nodes 0 nodes' 0 t.size;
    t.ids <- ids';
    t.nodes <- nodes'
  end;
  move_ints t.ids rank t.ids (rank + 1) (t.size - rank);
  move_ints t.nodes rank t.nodes (rank + 1) (t.size - rank);
  t.ids.(rank) <- id;
  t.nodes.(rank) <- node;
  t.size <- t.size + 1

let remove t ~id =
  let rank = lower_bound t id in
  if rank >= t.size || t.ids.(rank) <> id then invalid_arg "Ring.remove: identifier not present";
  move_ints t.ids (rank + 1) t.ids rank (t.size - rank - 1);
  move_ints t.nodes (rank + 1) t.nodes rank (t.size - rank - 1);
  t.size <- t.size - 1
