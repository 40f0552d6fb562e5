(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (S5) plus the extension experiments, and runs Bechamel
   micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig3 fig5    # selected experiments
     dune exec bench/main.exe -- --json BENCH.json   # machine-readable export
     CANON_SCALE=quick dune exec bench/main.exe   # reduced sizes

   Experiment ids: every name in Canon_experiments.Registry.all, in its
   order, then micro (the Bechamel suite below).

   Every run ends with a manifest (seed, scale, git revision, wall time
   per experiment) so pasted outputs are self-identifying; --json FILE
   writes the same manifest, with each experiment's own telemetry
   metrics in its entry, and every table as one JSON document — the
   perf-trajectory record compared across commits. *)

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
  let ts_overlay = Crescendo.build ts_rings in
  let ts_net =
    Canon_net.Net.create ~plan:ts_plan ~rings:ts_rings ~rng:(Rng.create 10)
      ~node_latency:(Common.node_latency ts_setup ts_pop)
      ts_overlay
  in
  let ts_dead = Array.init ts_n (Canon_net.Fault_plan.is_crashed ts_plan) in
  (* Pre-drawn inputs, replayed in a cycle by each row that takes them
     (so rows on the same inputs see them in the same order). *)
  let cycle inputs =
    let i = ref (-1) in
    fun () ->
      i := (!i + 1) mod Array.length inputs;
      inputs.(!i)
  in
  let step_inputs =
    Array.init 4096 (fun _ -> (Rng.pick rng ts_live, Canon_idspace.Id.random rng))
  in
  (* The whole-overlay builds of perfbench's static_lookup: n = 32768
     over a transit-stub graph widened to about 3000 routers. *)
  let sl_pop =
    let ts =
      Canon_topology.Transit_stub.generate (Rng.create seed)
        (Latency_bench.scaled_params ~routers:3000)
    in
    let setup =
      {
        Common.ts;
        latency = Canon_topology.Latency.create ts;
        tree = Canon_topology.Transit_stub.hierarchy ts;
        mean_direct = 0.0;
      }
    in
    Common.topology_population ~seed:(seed + 1) setup ~n:32768
  in
  let sl_rings = Rings.build sl_pop in
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
      Test.make ~name:"rings.build (transit-stub, n=32768)"
        (Staged.stage (fun () -> ignore (Rings.build sl_pop)));
      Test.make ~name:"chord.build (transit-stub, n=32768)"
        (Staged.stage (fun () -> ignore (Chord.build sl_pop)));
      Test.make ~name:"crescendo.build (transit-stub, n=32768)"
        (Staged.stage (fun () -> ignore (Crescendo.build sl_rings)));
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
      Test.make ~name:"router.step (sorted links, Crescendo n=8192, 10% dead)"
        (let next = cycle step_inputs and dead = Array.get ts_dead in
         Staged.stage (fun () ->
             let u, key = next () in
             ignore (Router.step_clockwise ts_overlay ~dead ~at:u ~key)));
      Test.make ~name:"router.step (closure scan, Crescendo n=8192, 10% dead)"
        (let next = cycle step_inputs in
         Staged.stage (fun () ->
             let u, key = next () in
             ignore
               (Router.step_clockwise_avoiding_generic ~id:(Overlay.id ts_overlay)
                  ~links:(Overlay.links ts_overlay) ~dead:(Array.get ts_dead) ~at:u ~key)));
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
      Test.make ~name:"latency.node_latency (warm, 2040 routers)"
        (* Router pairs as Net's hops query them; every intra-domain
           table they touch is built before timing starts. *)
        (let oracle = ts_setup.Common.latency in
         let stubs = Canon_topology.Transit_stub.stub_routers ts_setup.Common.ts in
         let pairs = Array.init 4096 (fun _ -> (Rng.pick rng stubs, Rng.pick rng stubs)) in
         Array.iter (fun (a, b) -> ignore (Canon_topology.Latency.node_latency oracle a b)) pairs;
         let next = cycle pairs in
         Staged.stage (fun () ->
             let a, b = next () in
             ignore (Canon_topology.Latency.node_latency oracle a b)));
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
      Test.make ~name:"net.handle per event (2040 routers, n=8192, 10% dead, 1% loss)"
        (* Each run handles one event of a caller-owned queue; a run that
           finds the queue empty first launches the next lookup. *)
        (let q = Canon_sim.Event_queue.create () in
         let push ~time ev = Canon_sim.Event_queue.push q ~time ev in
         let next = cycle step_inputs in
         Staged.stage (fun () ->
             if Canon_sim.Event_queue.is_empty q then begin
               let src, key = next () in
               ignore (Canon_net.Net.launch ts_net ~now:0.0 ~push ~src ~key)
             end;
             if not (Canon_sim.Event_queue.is_empty q) then begin
               let now = Canon_sim.Event_queue.min_time q in
               Canon_net.Net.handle ts_net ~now ~push (Canon_sim.Event_queue.take q)
             end));
      Test.make ~name:"live_view.links (Chord view, n=4096, 3072 live, bump every 2nd call)"
        (* live_churn's Chord view misses its memo on about every other
           call, since each membership event resets it. *)
        (let m = Canon_sim.Maintenance.create pop ~present:(Array.init (3 * n / 4) Fun.id) in
         let view = Canon_net.Live_view.chord m in
         let calls = ref 0 in
         Staged.stage (fun () ->
             incr calls;
             if !calls land 1 = 0 then Canon_net.Live_view.bump view;
             ignore (Canon_net.Live_view.links view (Rng.int_below rng (3 * n / 4)))));
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

let micro =
  let run ~scale:_ ~seed:_ = micro_benchmarks () in
  { Registry.name = "micro"; doc = "Bechamel micro-benchmarks."; run; pinned = false }

let experiments = Registry.all @ [ micro ]

(* --- run manifest -------------------------------------------------- *)

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let scale_name = function `Paper -> "paper" | `Quick -> "quick"

let manifest_table ~scale ~git ~timings ~total =
  let t =
    Table.create
      ~title:(Printf.sprintf "Run manifest (seed %d, scale %s, git %s)" seed (scale_name scale) git)
      ~columns:[ "experiment"; "seconds" ]
  in
  List.iter
    (fun (name, secs, _) -> Table.add_row t [ name; Printf.sprintf "%.1f" secs ])
    timings;
  Table.add_row t [ "total"; Printf.sprintf "%.1f" total ];
  t

let manifest_json ~scale ~git ~timings ~total =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("scale", Json.String (scale_name scale));
      ("git", Json.String git);
      ("total_seconds", Json.Float total);
      ( "experiments",
        Json.List
          (List.map
             (fun (name, secs, metrics) ->
               Json.Obj
                 [ ("name", Json.String name); ("seconds", Json.Float secs); ("metrics", metrics) ])
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
    match List.rev !requested with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.find_opt (fun (e : Registry.t) -> e.name = name) experiments with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" name
                  (String.concat " " (List.map (fun (e : Registry.t) -> e.name) experiments));
                exit 1)
          names
  in
  let git = git_describe () in
  Printf.printf "Canon benchmark harness (scale: %s, seed: %d, git: %s)\n\n%!"
    (scale_name scale) seed git;
  let t_start = Unix.gettimeofday () in
  let timings = ref [] and tables = ref [] in
  List.iter
    (fun (e : Registry.t) ->
      let t0 = Unix.gettimeofday () in
      let table = Registry.run e ~scale ~seed in
      let dt = Unix.gettimeofday () -. t0 in
      let metrics = Report.metrics_json () in
      Printf.printf "[%s finished in %.1f s]\n\n%!" e.name dt;
      Table.print table;
      print_newline ();
      timings := (e.name, dt, metrics) :: !timings;
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
