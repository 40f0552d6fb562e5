open Canon_core
open Canon_overlay
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

let run ~scale ~seed =
  let n = match scale with `Paper -> 16384 | `Quick -> 2048 in
  let levels = 3 in
  let samples = match scale with `Paper -> 4000 | `Quick -> 1000 in
  let flat_pop = Common.hierarchy_population ~seed ~levels:1 ~n in
  let hier_pop = Common.hierarchy_population ~seed:(seed + 1) ~levels ~n in
  let hier_rings = Rings.build hier_pop in
  let table =
    Table.create
      ~title:(Printf.sprintf "Variant parity: degree and hops, flat vs Canonical (n = %d)" n)
      ~columns:[ "System"; "Mean degree"; "Mean hops" ]
  in
  let add name overlay router seed' =
    let hops = Common.mean_hops_with router (Rng.create seed') overlay ~samples in
    Table.add_float_row table name [ Overlay.mean_degree overlay; hops ]
  in
  let clockwise = Router.greedy_clockwise in
  let xor = Router.greedy_xor in
  add "Chord" (Chord.build flat_pop) clockwise (seed + 10);
  add "Crescendo (3 levels)" (Crescendo.build hier_rings) clockwise (seed + 11);
  add "Symphony" (Symphony.build (Rng.create (seed + 20)) flat_pop) clockwise (seed + 12);
  add "Cacophony (3 levels)"
    (Cacophony.build (Rng.create (seed + 21)) hier_rings)
    clockwise (seed + 13);
  add "ND-Chord" (Nd_chord.build (Rng.create (seed + 22)) flat_pop) clockwise (seed + 14);
  add "ND-Crescendo (3 levels)"
    (Nd_crescendo.build (Rng.create (seed + 23)) hier_rings)
    clockwise (seed + 15);
  add "Kademlia" (Kademlia.build (Rng.create (seed + 24)) flat_pop) xor (seed + 16);
  add "Kandy (3 levels)" (Kandy.build (Rng.create (seed + 25)) hier_rings) xor (seed + 17);
  add "CAN (log-degree)" (Can.build flat_pop) xor (seed + 18);
  add "Can-Can (3 levels)" (Can_can.build hier_rings) xor (seed + 19);
  add "Pastry (b=4)" (Pastry.build (Rng.create (seed + 26)) flat_pop) xor (seed + 27);
  add "Canonical Pastry (3 levels)"
    (Pastry.build_canonical (Rng.create (seed + 28)) hier_rings)
    xor (seed + 29);
  table
