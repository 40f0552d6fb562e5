open Canon_core
open Canon_overlay
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

let run ~scale ~seed =
  let sizes = match scale with `Paper -> [ 2048; 8192; 32768 ] | `Quick -> [ 1024; 4096 ] in
  let samples = match scale with `Paper -> 3000 | `Quick -> 1000 in
  let table =
    Table.create ~title:"Lookahead ablation (Symphony / Cacophony, 3 levels)"
      ~columns:
        [ "n"; "Sym greedy"; "Sym lookahead"; "saving"; "Cac greedy"; "Cac lookahead"; "saving" ]
  in
  List.iter
    (fun n ->
      let flat = Common.hierarchy_population ~seed ~levels:1 ~n in
      let hier = Common.hierarchy_population ~seed:(seed + 1) ~levels:3 ~n in
      let sym = Symphony.build (Rng.create (seed + n)) flat in
      let cac = Cacophony.build (Rng.create (seed + n + 1)) (Rings.build hier) in
      let hops router seed ov = Common.mean_hops_with router (Rng.create seed) ov ~samples in
      let sg = hops Router.greedy_clockwise 1 sym in
      let sl = hops Router.greedy_clockwise_lookahead 1 sym in
      let cg = hops Router.greedy_clockwise 2 cac in
      let cl = hops Router.greedy_clockwise_lookahead 2 cac in
      Table.add_float_row table (string_of_int n)
        [ sg; sl; 1.0 -. (sl /. sg); cg; cl; 1.0 -. (cl /. cg) ])
    sizes;
  table
