(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (S5) plus the extension experiments, and runs Bechamel
   micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig3 fig5    # selected experiments
     dune exec bench/main.exe -- --json BENCH.json   # machine-readable export
     CANON_SCALE=quick dune exec bench/main.exe   # reduced sizes

   Experiment ids: fig3 fig4 fig5 fig6 fig7 fig8 fig9 theorems variants
   lookahead balance maintenance caching isolation hybrid prefixcan
   skipnet robustness durability churn_async latency micro.

   Every run ends with a manifest (seed, scale, git revision, wall time
   per experiment) so pasted outputs are self-identifying; --json FILE
   writes the same manifest, every table, and the telemetry metrics
   registry as one JSON document — the perf-trajectory record compared
   across commits. *)

open Canon_experiments
module Table = Canon_stats.Table
module Json = Canon_telemetry.Json
module Report = Canon_telemetry.Report

let seed = 42

(* --- Bechamel micro-benchmarks ------------------------------------ *)

let micro_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  let open Canon_overlay in
  let open Canon_core in
  let module Rng = Canon_rng.Rng in
  let n = 4096 in
  let pop = Common.hierarchy_population ~seed ~levels:3 ~n in
  let rings = Rings.build pop in
  let overlay = Crescendo.build rings in
  let flat_pop = Common.hierarchy_population ~seed:(seed + 1) ~levels:1 ~n in
  let flat_ring =
    Ring.of_members ~ids:flat_pop.Population.ids ~members:(Array.init n Fun.id)
  in
  let rng = Rng.create 7 in
  let random_node () = Rng.int_below rng n in
  (* The replicated store's network: Crescendo over the 2040-router
     transit-stub hierarchy with 10% of nodes crashed and 1% loss. *)
  let ts_n = 8192 in
  let ts_setup = Common.topology_setup ~seed in
  let ts_pop = Common.topology_population ~seed:(seed + 1) ts_setup ~n:ts_n in
  let ts_rings = Rings.build ts_pop in
  let ts_root = Canon_hierarchy.Domain_tree.root ts_pop.Population.tree in
  let ts_plan = Canon_net.Fault_plan.create ~loss:0.01 ~n:ts_n () in
  Canon_net.Fault_plan.crash_random ts_plan (Rng.create 8) ~fraction:0.1 ();
  let ts_alive v = not (Canon_net.Fault_plan.is_crashed ts_plan v) in
  let ts_live = Array.of_list (List.filter ts_alive (List.init ts_n Fun.id)) in
  let ts_net =
    Canon_net.Net.create ~plan:ts_plan ~rings:ts_rings ~rng:(Rng.create 10)
      ~node_latency:(Common.node_latency ts_setup ts_pop)
      (Crescendo.build ts_rings)
  in
  let tests =
    [
      Test.make ~name:"ring.successor_of_id"
        (Staged.stage (fun () ->
             ignore (Ring.successor_of_id flat_ring (Canon_idspace.Id.random rng))));
      Test.make ~name:"chord.links_of_one_node (n=4096)"
        (Staged.stage (fun () ->
             let node = random_node () in
             ignore (Chord.links_of_id flat_ring flat_pop.Population.ids.(node) ~self:node)));
      Test.make ~name:"crescendo.links_of_one_node (3 levels)"
        (Staged.stage (fun () -> ignore (Crescendo.links_of_node rings (random_node ()))));
      Test.make ~name:"maintenance.join+leave (n=4096, 3 levels)"
        (* A quarter of the population stays absent; each run joins one
           of them and takes it out again, which restores the state. *)
        (let m = Canon_sim.Maintenance.create pop ~present:(Array.init (3 * n / 4) Fun.id) in
         Staged.stage (fun () ->
             let node = (3 * n / 4) + Rng.int_below rng (n / 4) in
             ignore (Canon_sim.Maintenance.join m node);
             ignore (Canon_sim.Maintenance.leave m node)));
      Test.make ~name:"maintenance.join+leave (transit-stub, n=4096, 3072 live)"
        (* live_churn's membership: the 5-level transit-stub hierarchy. *)
        (let churn_pop = Common.topology_population ~seed:(seed + 2) ts_setup ~n in
         let m =
           Canon_sim.Maintenance.create churn_pop ~present:(Array.init (3 * n / 4) Fun.id)
         in
         Staged.stage (fun () ->
             let node = (3 * n / 4) + Rng.int_below rng (n / 4) in
             ignore (Canon_sim.Maintenance.join m node);
             ignore (Canon_sim.Maintenance.leave m node)));
      Test.make ~name:"router.greedy_clockwise (n=4096)"
        (Staged.stage (fun () ->
             let src = random_node () and dst = random_node () in
             ignore (Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))));
      Test.make ~name:"router.greedy_xor (kademlia n=4096)"
        (let kademlia = Kademlia.build (Rng.create 9) flat_pop in
         Staged.stage (fun () ->
             let src = random_node () and dst = random_node () in
             ignore (Router.greedy_xor kademlia ~src ~key:(Overlay.id kademlia dst))));
      Test.make ~name:"replica_set.compute (sibling k=3, 2040 routers, n=8192, 10% dead)"
        (Staged.stage (fun () ->
             ignore
               (Canon_storage.Replica_set.compute ~alive:ts_alive ts_rings
                  ~spread:Canon_storage.Replica_set.Sibling ~k:3 ~domain:ts_root
                  ~key:(Canon_idspace.Id.random rng))));
      Test.make ~name:"event_queue.push+pop (depth 64, integer-ms ties)"
        (* Steady state: each run schedules one event at most 40 ms
           after the one it pops, as Net's hops and timers do, so the
           depth stays at 64 and timestamps tie often. *)
        (let q = Canon_sim.Event_queue.create () in
         for i = 0 to 63 do
           Canon_sim.Event_queue.push q ~time:(Float.of_int (i mod 40)) i
         done;
         Staged.stage (fun () ->
             let now = Canon_sim.Event_queue.min_time q in
             let ev = Canon_sim.Event_queue.take q in
             Canon_sim.Event_queue.push q ~time:(now +. Float.of_int (1 + (ev land 31))) ev));
      Test.make ~name:"net.lookup (2040 routers, n=8192, 10% dead, 1% loss)"
        (Staged.stage (fun () ->
             ignore
               (Canon_net.Net.lookup ts_net ~src:(Rng.pick rng ts_live)
                  ~key:(Canon_idspace.Id.random rng))));
    ]
  in
  let grouped = Test.make_grouped ~name:"canon" tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  let table =
    Table.create ~title:"Micro-benchmarks (Bechamel, ns/op)" ~columns:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some (est :: _) -> Table.add_row table [ name; Printf.sprintf "%.1f" est ]
      | Some [] | None -> Table.add_row table [ name; "n/a" ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  table

let experiments =
  [
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("theorems", Theorems.run);
    ("variants", Variants.run);
    ("lookahead", Lookahead_bench.run);
    ("balance", Balance_bench.run);
    ("maintenance", Maintenance_bench.run);
    ("caching", Caching_bench.run);
    ("isolation", Isolation.run);
    ("hybrid", Hybrid_bench.run);
    ("prefixcan", Prefix_can_bench.run);
    ("skipnet", Skipnet_bench.run);
    ("robustness", Robustness_bench.run);
    ("durability", Durability.run);
    ("churn_async", Churn_async.run);
    ("latency", Latency_bench.run);
    ("micro", fun ~scale:_ ~seed:_ -> micro_benchmarks ());
  ]

(* --- run manifest -------------------------------------------------- *)

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let manifest_table ~scale ~git ~timings ~total =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Run manifest (seed %d, scale %s, git %s)" seed
           (match scale with `Paper -> "paper" | `Quick -> "quick")
           git)
      ~columns:[ "experiment"; "seconds" ]
  in
  List.iter
    (fun (name, secs) -> Table.add_row t [ name; Printf.sprintf "%.1f" secs ])
    timings;
  Table.add_row t [ "total"; Printf.sprintf "%.1f" total ];
  t

let manifest_json ~scale ~git ~timings ~total =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("scale", Json.String (match scale with `Paper -> "paper" | `Quick -> "quick"));
      ("git", Json.String git);
      ("total_seconds", Json.Float total);
      ( "experiments",
        Json.List
          (List.map
             (fun (name, secs) ->
               Json.Obj [ ("name", Json.String name); ("seconds", Json.Float secs) ])
             timings) );
    ]

let () =
  let scale = Common.scale_of_env () in
  let json_file = ref None in
  let requested = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--json" :: [] ->
        prerr_endline "--json requires a file argument";
        exit 1
    | name :: rest ->
        requested := name :: !requested;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let requested =
    match List.rev !requested with [] -> List.map fst experiments | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1
      end)
    requested;
  let git = git_describe () in
  Printf.printf "Canon benchmark harness (scale: %s, seed: %d, git: %s)\n\n%!"
    (match scale with `Paper -> "paper" | `Quick -> "quick")
    seed git;
  let t_start = Unix.gettimeofday () in
  let timings = ref [] and tables = ref [] in
  List.iter
    (fun name ->
      let build = List.assoc name experiments in
      let t0 = Unix.gettimeofday () in
      let table = build ~scale ~seed in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "[%s finished in %.1f s]\n\n%!" name dt;
      Table.print table;
      print_newline ();
      timings := (name, dt) :: !timings;
      tables := table :: !tables)
    requested;
  let total = Unix.gettimeofday () -. t_start in
  let timings = List.rev !timings and tables = List.rev !tables in
  Table.print (manifest_table ~scale ~git ~timings ~total);
  match !json_file with
  | None -> ()
  | Some file ->
      let doc =
        Json.Obj
          [
            ("manifest", manifest_json ~scale ~git ~timings ~total);
            ("tables", Json.List (List.map Report.table_json tables));
            ("metrics", Report.metrics_json ());
          ]
      in
      (match open_out file with
      | oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          Printf.printf "\n[wrote %s]\n" file
      | exception Sys_error msg ->
          Printf.eprintf "cannot write %s: %s\n" file msg;
          exit 1)
