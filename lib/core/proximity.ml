open Canon_idspace
open Canon_overlay

type kind =
  | Chord_groups of int (* T: prefix bits *)
  | Crescendo_groups

type t = {
  kind : kind;
  overlay : Overlay.t;
}

let default_group_size = 16

let group_bits ~n ~group_size =
  if n < 0 || group_size <= 0 then invalid_arg "Proximity.group_bits";
  if n <= group_size then 0 else min Id.bits (Id.log2_floor (n / group_size))

let shift_of_bits bits = Id.bits - bits

(* Iterate the members of group [g] (top [t_bits] prefix = g) present in
   [ring], calling [f node]. *)
let iter_group ring ~t_bits g f =
  let shift = shift_of_bits t_bits in
  let start = g lsl shift and len = 1 lsl shift in
  let first = Ring.rank_at_or_after ring start in
  for i = 0 to Ring.arc_count ring ~start ~len - 1 do
    f (Ring.nth_from ring first i)
  done

let min_latency_member ring ~t_bits g ~node_latency ~self =
  let best = ref (-1) and best_lat = ref infinity in
  iter_group ring ~t_bits g (fun node ->
      if node <> self then begin
        let l = node_latency self node in
        if l < !best_lat then begin
          best := node;
          best_lat := l
        end
      end);
  if !best < 0 then None else Some !best

let build_chord ?(group_size = default_group_size) pop ~node_latency =
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let t_bits = group_bits ~n ~group_size in
  let shift = shift_of_bits t_bits in
  let global = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
  let buf = Array.make (n + t_bits) 0 in
  let links =
    Array.init n (fun node ->
        let id = ids.(node) in
        let g = Id.prefix id t_bits in
        let len = ref 0 in
        (* Dense intra-group structure: the full clique. *)
        iter_group global ~t_bits g (fun peer ->
            if peer <> node then begin
              buf.(!len) <- peer;
              incr len
            end);
        (* Group fingers: for each k < T, the first non-empty group at or
           after g + 2^k, entered at its lowest-latency member. Two k
           can share a group; no finger is in the clique's. *)
        let clique = !len in
        for k = 0 to t_bits - 1 do
          let target_group = (g + (1 lsl k)) land ((1 lsl t_bits) - 1) in
          (* The first node at or after the target group's start. *)
          let entry = Ring.first_at_or_after global (target_group lsl shift) in
          let actual_group = Id.prefix ids.(entry) t_bits in
          if actual_group <> g then
            len :=
              Canonical.add buf ~from:clique !len
                (Option.value ~default:entry
                   (min_latency_member global ~t_bits actual_group ~node_latency ~self:node))
        done;
        Array.sub buf 0 !len)
  in
  { kind = Chord_groups t_bits; overlay = Overlay.create pop ~links }

(* The root rule of Crescendo (Prox.), below [cap]: the successor, then
   per k, the Chord finger's admissible arc [id + 2^k, id + min(2^(k+1),
   cap)) -- condition (a) restricted by condition (b) -- gives one pick,
   the lowest-latency of the finger and the sampled members (§3.6: at
   the top level the link rule only prescribes a range, and the node is
   free to pick the physically closest member, as in the paper's [5];
   the paper notes s = 32 suffices). The stride [max 1 (count / 32)]
   samples every member of an arc of fewer than 64 members, so up to 63
   of them, and 32 to 48 of a larger arc. With at most one member in
   the arc, the finger itself is taken, so it may also be the next
   arc's pick: the level dedupes its picks. *)
let add_root_picks ~ids ~node_latency ring id ~self ~cap buf from =
  let succ = Ring.successor_of_id ring id in
  let len = ref (if Id.distance id ids.(succ) < cap then Canonical.add buf ~from from succ else from) in
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    (match Ring.finger ring id (1 lsl !k) with
    | None -> ()
    | Some target ->
        if Id.distance id ids.(target) < cap then begin
          let start = Id.add id (1 lsl !k) in
          let count = Ring.arc_count ring ~start ~len:(min (1 lsl (!k + 1)) cap - (1 lsl !k)) in
          let best = ref target in
          if count > 1 then begin
            let best_lat = ref (node_latency self target) in
            let stride = max 1 (count / 32) in
            let first = Ring.rank_at_or_after ring start in
            let i = ref 0 in
            while !i < count do
              let peer = Ring.nth_from ring first !i in
              if peer <> self then begin
                let l = node_latency self peer in
                if l < !best_lat then begin
                  best := peer;
                  best_lat := l
                end
              end;
              i := !i + stride
            done
          end;
          len := Canonical.add buf ~from !len !best
        end);
    incr k
  done;
  !len

(* Crescendo below the root, the group rule at it. *)
let build_crescendo rings ~node_latency =
  let pop = Rings.population rings in
  let ids = pop.Population.ids and tree = pop.Population.tree in
  let root = Canon_hierarchy.Domain_tree.root tree in
  let buf = Array.make ((Id.bits + 1) * (Canon_hierarchy.Domain_tree.height tree + 1)) 0 in
  let row rings node =
    let id = ids.(node) in
    Canonical.ring_row rings node
      (fun d ~cap buf len ->
        let ring = Rings.ring rings d in
        if d = root then add_root_picks ~ids ~node_latency ring id ~self:node ~cap buf len
        else Chord.add_fingers ring id ~self:node ~below:cap buf len)
      ~gap:(fun d -> Ring.successor_distance (Rings.ring rings d) id)
      buf
  in
  { kind = Crescendo_groups; overlay = Canonical.hierarchical rings row }

let overlay t = t.overlay

let route t ~src ~dst =
  match t.kind with
  | Crescendo_groups ->
      Router.greedy_clockwise t.overlay ~src ~key:(Overlay.id t.overlay dst)
  | Chord_groups t_bits ->
      let ov = t.overlay in
      let group node = Id.prefix (Overlay.id ov node) t_bits in
      let ngroups = 1 lsl t_bits in
      let gdist a b = (b - a) land (ngroups - 1) in
      let dst_group = group dst in
      let step u =
        if u = dst then Router.Arrived
        else if group u = dst_group then
          (* Intra-group clique: one hop to the destination. *)
          Router.Forward dst
        else begin
          (* Group-greedy: largest group progress without overshooting
             the destination group. *)
          let du = gdist (group u) dst_group in
          let best = ref (-1) and best_remaining = ref du in
          Array.iter
            (fun v ->
              let dv = gdist (group v) dst_group in
              if gdist (group u) (group v) <= du && dv < !best_remaining then begin
                best := v;
                best_remaining := dv
              end)
            (Overlay.links ov u);
          if !best < 0 then Router.Blocked else Router.Forward !best
        end
      in
      Router.route ~kind:"proximity.chord_groups"
        ~level:(Population.link_level (Overlay.population ov))
        ~n:(Overlay.size ov) ~src ~key:(Overlay.id ov dst) step
