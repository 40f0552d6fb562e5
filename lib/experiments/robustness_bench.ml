open Canon_hierarchy
open Canon_core
open Canon_overlay
open Canon_net
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

(* One measurement: [probes] lookups between random [candidates] pairs
   over a fresh simulated network. Success = the lookup terminated at
   the probed destination (we look up the destination's own id, so the
   responsible node is the destination). *)
let measure rng overlay ~rings ~node_latency ~plan ~candidates ~probes =
  let net = Net.create ~plan ~rings ~rng:(Rng.split rng) ~node_latency overlay in
  let ok = ref 0 and wall = ref 0.0 in
  for _ = 1 to probes do
    let src = Rng.pick rng candidates and dst = Rng.pick rng candidates in
    let r = Net.lookup net ~src ~key:(Overlay.id overlay dst) in
    if Async_route.delivered r && Route.destination r.Async_route.route = dst then begin
      incr ok;
      wall := !wall +. r.Async_route.wall_ms
    end
  done;
  let rate = Float.of_int !ok /. Float.of_int probes in
  let mean_wall = if !ok = 0 then 0.0 else !wall /. Float.of_int !ok in
  (rate, mean_wall)

let live_nodes plan ~n =
  Array.of_list
    (List.filter (fun v -> not (Fault_plan.is_crashed plan v)) (List.init n Fun.id))

let run_with ?(fail_fracs = [ 0.0; 0.05; 0.1; 0.2; 0.3 ]) ?(loss = 0.01) ?n ?probes
    ~scale ~seed () =
  let n =
    match (n, scale) with Some n, _ -> n | None, `Paper -> 8192 | None, `Quick -> 2048
  in
  let probes =
    match (probes, scale) with
    | Some p, _ -> p
    | None, `Paper -> 1500
    | None, `Quick -> 300
  in
  let check_prob what p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg ("Robustness_bench.run_with: " ^ what ^ " not in [0, 1]")
  in
  List.iter (check_prob "fail_frac") fail_fracs;
  check_prob "loss" loss;
  if n < 1 then invalid_arg "Robustness_bench.run_with: n < 1";
  if probes < 1 then invalid_arg "Robustness_bench.run_with: probes < 1";
  let setup = Common.topology_setup ~seed in
  let pop = Common.topology_population ~seed setup ~n in
  let node_latency = Common.node_latency setup pop in
  let rings = Rings.build pop in
  let chord = Chord.build pop in
  let crescendo = Crescendo.build rings in
  (* The observed domain of the containment measurement: the largest
     depth-1 domain (as in the Isolation experiment). *)
  let domain =
    let kids = Domain_tree.children setup.Common.tree (Domain_tree.root setup.Common.tree) in
    let best = ref kids.(0) and best_size = ref 0 in
    Array.iter
      (fun d ->
        let s = Ring.size (Rings.ring rings d) in
        if s > !best_size then begin
          best := d;
          best_size := s
        end)
      kids;
    !best
  in
  let members = Ring.members (Rings.ring rings domain) in
  let inside = Array.make n false in
  Array.iter (fun m -> inside.(m) <- true) members;
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Robustness: async lookups vs crashed-node fraction (n = %d, loss = %g, \
            domain of %d nodes, timeout %gms / %d retries)"
           n loss (Array.length members) Rpc.default.Rpc.timeout_ms
           Rpc.default.Rpc.max_retries)
      ~columns:
        [
          "fail frac";
          "Chord ok";
          "Crescendo ok";
          "Chord intra-ok";
          "Cresc intra-ok";
          "Chord ms";
          "Cresc ms";
        ]
  in
  List.iter
    (fun frac ->
      let rng = Rng.create (seed + 1 + int_of_float (frac *. 1000.0)) in
      (* Global measurement: crashes anywhere; probes between live pairs. *)
      let global_plan = Fault_plan.create ~loss ~n () in
      Fault_plan.crash_random global_plan (Rng.split rng) ~fraction:frac ();
      let live = live_nodes global_plan ~n in
      let chord_ok, chord_ms =
        measure (Rng.split rng) chord ~rings ~node_latency ~plan:global_plan
          ~candidates:live ~probes
      in
      let cresc_ok, cresc_ms =
        measure (Rng.split rng) crescendo ~rings ~node_latency ~plan:global_plan
          ~candidates:live ~probes
      in
      (* Containment measurement: crashes outside the observed domain
         only; probes between domain members. *)
      let intra_plan = Fault_plan.create ~loss ~n () in
      Fault_plan.crash_random intra_plan (Rng.split rng) ~fraction:frac
        ~protect:(fun v -> inside.(v))
        ();
      let chord_intra, _ =
        measure (Rng.split rng) chord ~rings ~node_latency ~plan:intra_plan
          ~candidates:members ~probes
      in
      let cresc_intra, _ =
        measure (Rng.split rng) crescendo ~rings ~node_latency ~plan:intra_plan
          ~candidates:members ~probes
      in
      Table.add_float_row table
        (Printf.sprintf "%.0f%%" (frac *. 100.0))
        [ chord_ok; cresc_ok; chord_intra; cresc_intra; chord_ms; cresc_ms ])
    fail_fracs;
  table

let run ~scale ~seed = run_with ~scale ~seed ()
