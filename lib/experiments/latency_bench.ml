open Canon_topology
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

(* Scale the transit-stub generator to approximately [routers] routers
   by widening the stub domains; the transit skeleton (10 x 4 transit
   nodes, 5 stub domains each = 200 stub domains by default) is kept, so
   the latency-class structure stays the paper's. *)
let scaled_params ~routers =
  let p = Transit_stub.default_params in
  let transit = p.Transit_stub.transit_domains * p.Transit_stub.transit_nodes_per_domain in
  let domains = transit * p.Transit_stub.stub_domains_per_transit_node in
  let per_domain = max 1 ((routers - transit + domains - 1) / domains) in
  { p with Transit_stub.stub_routers_per_domain = per_domain }

let time f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let sizes = function
  | `Paper -> [ 4096; 16384; 65536 ]
  | `Quick -> [ 1024; 4096 ]

let lookups = 1000

(* Sources whose full Dijkstra row is compared against the oracle. *)
let checked_sources = 4

let run ~scale ~seed =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Latency oracle: structural setup and queries (%d random lookups; every \
            destination of %d random sources checked against Dijkstra)"
           lookups checked_sources)
      ~columns:
        [
          "routers";
          "create s";
          "lookups s";
          "intra tables";
          "resident MiB";
          "checked pairs";
          "mismatches";
        ]
  in
  List.iter
    (fun routers ->
      let rng = Rng.create (seed + routers) in
      let ts = Transit_stub.generate rng (scaled_params ~routers) in
      let n = Transit_stub.num_routers ts in
      let stubs = Transit_stub.stub_routers ts in
      let lat, create_s = time (fun () -> Latency.create ts) in
      let (), lookups_s =
        time (fun () ->
            for _ = 1 to lookups do
              let a = Rng.pick rng stubs and b = Rng.pick rng stubs in
              ignore (Latency.node_latency lat a b)
            done)
      in
      let st = Latency.stats lat in
      (* What the oracle holds beyond the topology it points to. *)
      let words = Obj.reachable_words (Obj.repr lat) - Obj.reachable_words (Obj.repr ts) in
      let mismatches = ref 0 in
      for _ = 1 to checked_sources do
        let src = Rng.int_below rng n in
        Array.iteri
          (fun dst d ->
            if not (Float.equal (Latency.router_latency lat src dst) d) then incr mismatches)
          (Graph.dijkstra (Transit_stub.graph ts) src)
      done;
      Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.6f" create_s;
          Printf.sprintf "%.6f" lookups_s;
          string_of_int st.Latency.rows_computed;
          Printf.sprintf "%.2f" (Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0);
          string_of_int (checked_sources * n);
          string_of_int !mismatches;
        ])
    (sizes scale);
  table
