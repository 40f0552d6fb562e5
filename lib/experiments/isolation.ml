open Canon_core
open Canon_overlay
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

let success_rate rng overlay ~dead ~members ~probes =
  let delivered = ref 0 in
  for _ = 1 to probes do
    let src = Rng.pick rng members and dst = Rng.pick rng members in
    match Router.greedy_clockwise_avoiding overlay ~dead ~src ~key:(Overlay.id overlay dst) with
    | Some route when Route.destination route = dst -> incr delivered
    | Some _ | None -> ()
  done;
  Float.of_int !delivered /. Float.of_int probes

let run ~scale ~seed =
  let n = match scale with `Paper -> 8192 | `Quick -> 2048 in
  let probes = match scale with `Paper -> 2000 | `Quick -> 600 in
  let pop = Common.hierarchy_population ~seed:(seed + 5) ~levels:3 ~n in
  let rings = Rings.build pop in
  let chord = Chord.build pop in
  let crescendo = Crescendo.build rings in
  let members, inside = Common.observed_domain rings in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fault isolation: intra-domain delivery vs outside-failure rate (n = %d, domain of \
            %d nodes, no repair)"
           n (Array.length members))
      ~columns:[ "outside failures"; "Chord delivery"; "Crescendo delivery" ]
  in
  List.iter
    (fun fraction ->
      let rng = Rng.create (seed + int_of_float (fraction *. 1000.0)) in
      let dead_flags = Array.make n false in
      Array.iteri
        (fun node _ ->
          if (not inside.(node)) && Rng.float rng < fraction then dead_flags.(node) <- true)
        dead_flags;
      let dead node = dead_flags.(node) in
      let chord_rate = success_rate (Rng.split rng) chord ~dead ~members ~probes in
      let crescendo_rate = success_rate (Rng.split rng) crescendo ~dead ~members ~probes in
      Table.add_float_row table (Printf.sprintf "%.0f%%" (fraction *. 100.0))
        [ chord_rate; crescendo_rate ])
    [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9 ];
  table
