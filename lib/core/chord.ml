open Canon_idspace
open Canon_overlay

(* The finger rule, whatever finds the targets: [rank_of finder id k]
   is the rank of the first member at or after [id + 2^k], wrapping.
   Finger targets move clockwise as k grows, so each distinct target is
   looked up once: after a target at distance [dist], every k with
   2^k <= dist lands on it again and is skipped. Once the lookup wraps
   (no member at distance >= 2^k), every further finger is the nearest
   member -- the holder of [id] itself (no link) or the k = 0 target
   already taken -- so the scan stops; it stops too at the first target
   at distance >= [below], since later ones are farther still. Targets
   closer than [from] are skipped, and the scan starts at the highest
   2^k <= [from]: a lower k whose target is at least [from] away lands
   on that same target. A finder and a top-level [rank_of], not a
   closure, so a whole-ring build allocates nothing per member but its
   row. *)
let fingers ring id ~self ~from ~below ~rank_of finder buf len =
  if Ring.size ring = 0 then invalid_arg "Chord: empty ring";
  let len = ref len and k = ref (Id.log2_floor from) in
  while !k < Id.bits && 1 lsl !k < below do
    let rank = rank_of finder id !k in
    let dist = Id.distance id (Ring.id_at ring rank) in
    if dist < 1 lsl !k || dist >= below then k := Id.bits
    else begin
      let target = Ring.node_at ring rank in
      if target <> self && dist >= from then begin
        buf.(!len) <- target;
        incr len
      end;
      while !k < Id.bits && 1 lsl !k <= dist do
        incr k
      done
    end
  done;
  !len

(* One binary search per target. *)
let search_rank ring id k =
  let rank = Ring.rank_at_or_after ring (Id.add id (1 lsl k)) in
  if rank < Ring.size ring then rank else 0

let add_fingers ring id ~self ~below buf len =
  fingers ring id ~self ~from:1 ~below ~rank_of:search_rank ring buf len

let add_fingers_between ring id ~self ~from ~below buf len =
  if from < 1 then invalid_arg "Chord.add_fingers_between: from < 1";
  fingers ring id ~self ~from ~below ~rank_of:search_rank ring buf len

(* Below [low] every target is the member's successor: 2^k is at most
   the smallest gap between ring neighbours. For k >= low,
   [cursor.(k - low)] is a rank on the ring read twice round, where
   rank [size + r] is rank [r] one lap on (its id plus [Id.space]). It
   never passes the k-th target of the member swept next: a later
   member's target for k is at the same rank or further on, so one
   forward walk per k serves a whole ring. The smallest gap is about
   [Id.space / size{^2}], so a ring keeps about [2 log2 size] cursors,
   not [Id.bits]. *)
type sweep = {
  ring : Ring.t;
  low : int;
  cursor : int array;
  mutable rank : int; (* the member being swept *)
}

let sweep ring =
  let size = Ring.size ring in
  let min_gap = ref Id.space in
  for r = 0 to size - 1 do
    let next = if r + 1 < size then Ring.id_at ring (r + 1) else Ring.id_at ring 0 + Id.space in
    min_gap := Int.min !min_gap (next - Ring.id_at ring r)
  done;
  let low = Id.log2_floor !min_gap + 1 in
  { ring; low; cursor = Array.make (max 0 (Id.bits - low)) 0; rank = 0 }

(* The target id is not wrapped: a lap later, the member itself
   (its id + Id.space) is past it, so the walk ends within two laps. *)
let sweep_rank s id k =
  let ring = s.ring and rank = s.rank in
  let size = Ring.size ring in
  if k < s.low then if rank + 1 < size then rank + 1 else 0
  else begin
    let target = id + (1 lsl k) and i = k - s.low in
    let c = ref (if s.cursor.(i) > rank then s.cursor.(i) else rank + 1) in
    while !c < size && Ring.id_at ring !c < target do
      incr c
    done;
    if !c >= size then
      while Ring.id_at ring (!c - size) + Id.space < target do
        incr c
      done;
    s.cursor.(i) <- !c;
    if !c < size then !c else !c - size
  end

let sweep_fingers s ~rank ~below buf len =
  let ring = s.ring in
  if rank < s.rank || rank >= Ring.size ring then
    invalid_arg "Chord.sweep_fingers: rank out of range or behind the sweep";
  s.rank <- rank;
  fingers ring (Ring.id_at ring rank) ~self:(Ring.node_at ring rank) ~from:1 ~below
    ~rank_of:sweep_rank s buf len

let links_of_id ring id ~self =
  let buf = Array.make Id.bits 0 in
  let len = add_fingers ring id ~self ~below:Id.space buf 0 in
  Array.sub buf 0 len

let build pop =
  let n = Population.size pop in
  let global = Ring.of_members ~ids:pop.Population.ids ~members:(Array.init n Fun.id) in
  let s = sweep global and buf = Array.make Id.bits 0 in
  let links = Array.make n [||] in
  for rank = 0 to n - 1 do
    let len = sweep_fingers s ~rank ~below:Id.space buf 0 in
    links.(Ring.node_at global rank) <- Array.sub buf 0 len
  done;
  Overlay.create pop ~links
