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
  if n <= 0 || group_size <= 0 then invalid_arg "Proximity.group_bits";
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
  let links =
    Array.init n (fun node ->
        let id = ids.(node) in
        let g = Id.prefix id t_bits in
        let acc = Link_set.create ~self:node in
        (* Dense intra-group structure: the full clique. *)
        iter_group global ~t_bits g (fun peer -> Link_set.add acc peer);
        (* Group fingers: for each k < T, the first non-empty group at or
           after g + 2^k, entered at its lowest-latency member. *)
        for k = 0 to t_bits - 1 do
          let target_group = (g + (1 lsl k)) land ((1 lsl t_bits) - 1) in
          (* The first node at or after the target group's start. *)
          let entry = Ring.first_at_or_after global (target_group lsl shift) in
          let actual_group = Id.prefix ids.(entry) t_bits in
          if actual_group <> g then begin
            match min_latency_member global ~t_bits actual_group ~node_latency ~self:node with
            | Some best -> Link_set.add acc best
            | None -> Link_set.add acc entry
          end
        done;
        Link_set.to_array acc)
  in
  { kind = Chord_groups t_bits; overlay = Overlay.create pop ~links }

let build_crescendo ?(group_size = default_group_size) rings ~node_latency =
  (* The group size is implicit in the admissible arcs at the top level;
     the parameter is kept for interface symmetry with [build_chord]. *)
  ignore group_size;
  let pop = Rings.population rings in
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let tree = pop.Population.tree in
  let root = Canon_hierarchy.Domain_tree.root tree in
  let root_ring = Rings.ring rings root in
  let links =
    Array.init n (fun node ->
        let id = ids.(node) in
        let acc = Link_set.create ~self:node in
        let chain = Rings.chain rings node in
        let levels = Array.length chain in
        (* Ordinary Crescendo below the root; with a flat hierarchy the
           top level is the leaf itself and no cap applies. *)
        let d_own = ref Id.space in
        if levels > 1 then begin
          let leaf_ring = Rings.ring rings chain.(0) in
          Array.iter (Link_set.add acc) (Chord.links_of_id leaf_ring id ~self:node);
          d_own := Ring.successor_distance leaf_ring id
        end;
        for level = 1 to levels - 2 do
          let ring = Rings.ring rings chain.(level) in
          let k = ref 0 in
          while !k < Id.bits && 1 lsl !k < !d_own do
            (match Ring.finger ring id (1 lsl !k) with
            | None -> ()
            | Some target ->
                let dist = Id.distance id ids.(target) in
                if dist < !d_own then Link_set.add acc target);
            incr k
          done;
          d_own := min !d_own (Ring.successor_distance ring id)
        done;
        (* Top-level merge with the group rule. The exact successor is
           always kept so greedy clockwise routing stays exact. *)
        (if Ring.size root_ring >= 2 then begin
           let succ = Ring.successor_of_id root_ring id in
           let succ_dist = Id.distance id ids.(succ) in
           if succ_dist <= !d_own then Link_set.add acc succ
         end);
        let k = ref 0 in
        while !k < Id.bits && 1 lsl !k < !d_own do
          (match Ring.finger root_ring id (1 lsl !k) with
          | None -> ()
          | Some target ->
              let dist = Id.distance id ids.(target) in
              if dist < !d_own then begin
                (* §3.6: at the top level the link rule only prescribes
                   a *range* of admissible identifiers, and the node is
                   free to pick the physically closest one (proximity
                   neighbour selection, as in the paper's [5]). The
                   admissible candidates are the nodes of the arc
                   [id + 2^k, id + min(2^(k+1), d_own)) — condition (a)
                   restricted by condition (b). *)
                let hi = min (1 lsl (!k + 1)) !d_own in
                let start = Id.add id (1 lsl !k) in
                let len = hi - (1 lsl !k) in
                let count = Ring.arc_count root_ring ~start ~len in
                if count <= 1 then Link_set.add acc target
                else begin
                  let best = ref target and best_lat = ref (node_latency node target) in
                  (* Sample at most 32 candidates, as the paper notes
                     s = 32 suffices. *)
                  let stride = max 1 (count / 32) in
                  let first = Ring.rank_at_or_after root_ring start in
                  let i = ref 0 in
                  while !i < count do
                    let peer = Ring.nth_from root_ring first !i in
                    if peer <> node then begin
                      let l = node_latency node peer in
                      if l < !best_lat then begin
                        best := peer;
                        best_lat := l
                      end
                    end;
                    i := !i + stride
                  done;
                  Link_set.add acc !best
                end
              end);
          incr k
        done;
        Link_set.to_array acc)
  in
  { kind = Crescendo_groups; overlay = Overlay.create pop ~links }

let overlay t = t.overlay

let route t ~src ~dst =
  match t.kind with
  | Crescendo_groups ->
      Router.greedy_clockwise t.overlay ~src ~key:(Overlay.id t.overlay dst)
  | Chord_groups t_bits -> (
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
      let key = Overlay.id ov dst in
      match Router.walk ~n:(Overlay.size ov) ~src ~key step with
      | Ok route -> route
      | Error { Route.nodes } ->
          let hops = Array.length nodes - 1 in
          raise (Router.Stuck { at = nodes.(hops); key; hops; path = nodes }))
