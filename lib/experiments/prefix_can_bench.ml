open Canon_core
open Canon_overlay
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

let run ~scale ~seed =
  let sizes = match scale with `Paper -> [ 1024; 4096; 16384 ] | `Quick -> [ 512; 2048 ] in
  let samples = match scale with `Paper -> 4000 | `Quick -> 1000 in
  let table =
    Table.create ~title:"CAN realisations: prefix tree + virtual nodes vs XOR buckets"
      ~columns:
        [ "n"; "PrefixCAN deg"; "XOR-CAN deg"; "PrefixCAN hops"; "XOR-CAN hops" ]
  in
  List.iter
    (fun n ->
      let rng = Rng.create (seed + n) in
      let pc = Prefix_can.build (Rng.split rng) ~n in
      let pop = Common.hierarchy_population ~seed:(seed + n) ~levels:1 ~n in
      let xor_can = Can.build pop in
      (* Prefix CAN hops: bit-fixing to a random key. *)
      let pc_hops =
        let total = ref 0 in
        for _ = 1 to samples do
          let src = Rng.int_below rng n in
          let key = if Prefix_can.depth pc = 0 then 0 else Rng.int_below rng (1 lsl Prefix_can.depth pc) in
          total := !total + Route.hops (Prefix_can.route pc ~src ~key)
        done;
        Float.of_int !total /. Float.of_int samples
      in
      let xor_hops = Common.mean_hops_with Router.greedy_xor rng xor_can ~samples in
      Table.add_float_row table (string_of_int n)
        [ Prefix_can.mean_degree pc; Overlay.mean_degree xor_can; pc_hops; xor_hops ])
    sizes;
  table
