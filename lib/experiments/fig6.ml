open Canon_core
open Canon_overlay
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

(* Mean latency of proximity-routed paths between random node pairs. *)
let mean_prox_latency rng prox ~node_latency ~samples =
  let ov = Proximity.overlay prox in
  let n = Overlay.size ov in
  let total = ref 0.0 in
  for _ = 1 to samples do
    let src = Rng.int_below rng n and dst = Rng.int_below rng n in
    let route = Proximity.route prox ~src ~dst in
    total := !total +. Route.latency route ~node_latency
  done;
  !total /. Float.of_int samples

let run_with ?sizes ~scale ~seed () =
  let sizes = match sizes with Some s -> s | None -> Common.topo_sizes scale in
  List.iter (fun n -> if n < 2 then invalid_arg "Fig6.run_with: n < 2") sizes;
  let samples = match scale with `Paper -> 4000 | `Quick -> 1500 in
  let setup = Common.topology_setup ~seed in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 6: Latency (ms) and stretch vs network size (mean direct latency %.1f ms)"
           setup.Common.mean_direct)
      ~columns:
        [
          "n";
          "Chord lat";
          "Chord stretch";
          "Crescendo lat";
          "Crescendo stretch";
          "Chord(Prox) lat";
          "Chord(Prox) stretch";
          "Crescendo(Prox) lat";
          "Crescendo(Prox) stretch";
        ]
  in
  List.iter
    (fun n ->
      let pop = Common.topology_population ~seed:(seed + n) setup ~n in
      let node_latency = Common.node_latency setup pop in
      let rings = Rings.build pop in
      let chord = Chord.build pop in
      let crescendo = Crescendo.build rings in
      let chord_prox = Proximity.build_chord pop ~node_latency in
      let crescendo_prox = Proximity.build_crescendo rings ~node_latency in
      let lat_chord =
        Common.mean_route_latency (Rng.create (seed + 1)) chord ~node_latency ~samples
      in
      let lat_crescendo =
        Common.mean_route_latency (Rng.create (seed + 2)) crescendo ~node_latency ~samples
      in
      let lat_chord_prox =
        mean_prox_latency (Rng.create (seed + 3)) chord_prox ~node_latency ~samples
      in
      let lat_crescendo_prox =
        mean_prox_latency (Rng.create (seed + 4)) crescendo_prox ~node_latency ~samples
      in
      let stretch l = l /. setup.Common.mean_direct in
      Table.add_float_row table (string_of_int n)
        [
          lat_chord;
          stretch lat_chord;
          lat_crescendo;
          stretch lat_crescendo;
          lat_chord_prox;
          stretch lat_chord_prox;
          lat_crescendo_prox;
          stretch lat_crescendo_prox;
        ])
    sizes;
  table

let run ~scale ~seed = run_with ~scale ~seed ()
