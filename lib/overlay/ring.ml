open Canon_idspace

(* Slot [rank] is 4 bytes at offset [4 * rank] of each buffer: the id as
   an unsigned 32-bit value ([Id.bits] = 32), the node index as a signed
   one below 2^31. A shift is then one [Bytes.blit], a memmove, and the
   GC never scans either buffer. *)
type t = {
  mutable ids : Bytes.t; (* sorted ascending, first [size] slots *)
  mutable nodes : Bytes.t; (* node index at the same rank *)
  mutable size : int;
}

(* Unchecked: every access below is at a rank under the buffer's
   capacity, by the ring's invariants or by [check_rank]. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let id_mask = 0xFFFF_FFFF

let () = assert (id_mask = Id.space - 1)

let[@inline] get_id b rank = Int32.to_int (get32 b (rank lsl 2)) land id_mask

let[@inline] get_node b rank = Int32.to_int (get32 b (rank lsl 2))

let[@inline] set b rank v = set32 b (rank lsl 2) (Int32.of_int v)

(* This check and [check_rank] [raise] rather than call [invalid_arg],
   so a loop around them keeps its values in registers, as across an
   array's bounds check. A negative value has high bits set too. *)
let[@inline] check_slot ~id ~node =
  if node lsr 31 <> 0 then raise (Invalid_argument "Ring: node index out of range");
  if id lsr Id.bits <> 0 then raise (Invalid_argument "Ring: identifier out of range")

(* Both buffers keep a slot when empty, so [insert] can double them. *)
let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  let bytes = 4 * max capacity 1 in
  { ids = Bytes.create bytes; nodes = Bytes.create bytes; size = 0 }

let capacity t = Bytes.length t.ids lsr 2

(* Least significant byte first, one counting pass per byte: a stable
   sort in O(Id.bits / 8 * (k + 256)) with no comparison closure, whose
   calls took most of the time of a comparison sort of 32768 members. *)
let sort_by_id ids members =
  let k = Array.length members in
  let src = ref (Array.copy members) and dst = ref (Array.make k 0) in
  let first = Array.make 257 0 in
  for pass = 0 to ((Id.bits + 7) / 8) - 1 do
    let digit v = (ids.(v) lsr (8 * pass)) land 255 in
    Array.fill first 0 257 0;
    Array.iter (fun v -> first.(digit v + 1) <- first.(digit v + 1) + 1) !src;
    for b = 1 to 256 do
      first.(b) <- first.(b) + first.(b - 1)
    done;
    (* [first.(b)] is now the next free slot for digit [b]. *)
    Array.iter
      (fun v ->
        let b = digit v in
        !dst.(first.(b)) <- v;
        first.(b) <- first.(b) + 1)
      !src;
    let sorted = !dst in
    dst := !src;
    src := sorted
  done;
  !src

let of_members ~ids ~members =
  let members = sort_by_id ids members in
  let k = Array.length members in
  let t = create ~capacity:k in
  for rank = 0 to k - 1 do
    let node = members.(rank) in
    let id = ids.(node) in
    check_slot ~id ~node;
    if rank > 0 && id = get_id t.ids (rank - 1) then invalid_arg "Ring: duplicate identifiers";
    set t.ids rank id;
    set t.nodes rank node
  done;
  t.size <- k;
  t

let size t = t.size

let members t = Array.init t.size (get_node t.nodes)

let[@inline] check_rank t rank =
  if rank < 0 || rank >= t.size then raise (Invalid_argument "index out of bounds")

let[@inline] id_at t rank =
  check_rank t rank;
  get_id t.ids rank

let[@inline] node_at t rank =
  check_rank t rank;
  get_node t.nodes rank

let require_non_empty t = if size t = 0 then invalid_arg "Ring: empty ring"

(* Smallest rank whose id is >= q, or [size] if none. *)
let lower_bound t q =
  let ids = t.ids in
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if get_id ids mid >= q then hi := mid
    else lo := mid + 1
  done;
  !lo

let contains t q =
  let i = lower_bound t q in
  i < size t && get_id t.ids i = q

let first_at_or_after t q =
  require_non_empty t;
  let i = lower_bound t q in
  get_node t.nodes (if i < size t then i else 0)

let successor_of_id t q = first_at_or_after t (Id.add q 1)

let predecessor_of_id t q =
  require_non_empty t;
  let i = lower_bound t q in
  get_node t.nodes
    (if i < size t && get_id t.ids i = q then i else if i = 0 then size t - 1 else i - 1)

let successor_distance t id =
  require_non_empty t;
  if size t = 1 then Id.space
  else begin
    (* Rank of the first id strictly after [id], wrapping. *)
    let i = lower_bound t (Id.add id 1) in
    let succ_id = get_id t.ids (if i < size t then i else 0) in
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

let nth_from t rank i =
  let r = rank + i in
  node_at t (if r < t.size then r else r - t.size)

let random_in_arc rng t ~start ~len =
  let count = arc_count t ~start ~len in
  if count = 0 then None
  else Some (nth_from t (lower_bound t start) (Canon_rng.Rng.int_below rng count))

let finger t id d =
  require_non_empty t;
  if d < 1 then invalid_arg "Ring.finger: distance must be >= 1";
  let i = lower_bound t (Id.add id d) in
  let i = if i < size t then i else 0 in
  if get_id t.ids i = id then None else Some (get_node t.nodes i)

(* An id past the last member's goes at the end with no search, so a
   ring filled in increasing id order costs O(1) per member. *)
let insert t ~id ~node =
  check_slot ~id ~node;
  let size = t.size in
  let rank = if size = 0 || get_id t.ids (size - 1) < id then size else lower_bound t id in
  if rank < size && get_id t.ids rank = id then invalid_arg "Ring.insert: duplicate identifier";
  if size = capacity t then begin
    t.ids <- Bytes.extend t.ids 0 (4 * size);
    t.nodes <- Bytes.extend t.nodes 0 (4 * size)
  end;
  if rank < size then begin
    let at = rank lsl 2 and len = (size - rank) lsl 2 in
    Bytes.blit t.ids at t.ids (at + 4) len;
    Bytes.blit t.nodes at t.nodes (at + 4) len
  end;
  set t.ids rank id;
  set t.nodes rank node;
  t.size <- size + 1

let remove t ~id =
  let rank = lower_bound t id in
  if rank >= t.size || get_id t.ids rank <> id then
    invalid_arg "Ring.remove: identifier not present";
  let at = rank lsl 2 and len = (t.size - rank - 1) lsl 2 in
  Bytes.blit t.ids (at + 4) t.ids at len;
  Bytes.blit t.nodes (at + 4) t.nodes at len;
  t.size <- t.size - 1
