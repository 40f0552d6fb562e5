(* canon — command-line front end for the Canon reproduction.

   Each subcommand regenerates one of the paper's tables/figures (or an
   extension experiment) and prints it as an aligned text table. *)

open Cmdliner
module Table = Canon_stats.Table
module Telemetry = Canon_telemetry
open Canon_experiments

let seed_arg =
  let doc = "Random seed; identical seeds reproduce identical tables." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Run at reduced scale (fast; same qualitative shapes)." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let trace_arg =
  let doc =
    "Write one JSON span per measured lookup to $(docv) (JSONL). Each span records \
     the visited path, the hierarchy level of every link used, the outcome, and \
     cumulative physical latency when the experiment has a latency model."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let sample_arg =
  let doc = "With --trace: keep every $(docv)-th lookup only (default 1 = all)." in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"K" ~doc)

let metrics_arg =
  let doc = "Print the telemetry metrics registry after the experiment." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let scale_of quick = if quick then `Quick else Common.scale_of_env ()

let run_experiment build quick seed trace_file sample_every metrics =
  if sample_every < 1 then `Error (false, "--trace-sample must be >= 1")
  else begin
    match
      Option.map
        (fun file ->
          Telemetry.Trace.create ~sample_every ~sink:(Telemetry.Sink.jsonl_file file) ())
        trace_file
    with
    | exception Sys_error msg -> `Error (false, "cannot open trace file: " ^ msg)
    | trace ->
    Telemetry.Trace.set_ambient trace;
    let finally () =
      Telemetry.Trace.set_ambient None;
      Option.iter Telemetry.Trace.flush trace
    in
    Fun.protect ~finally (fun () ->
        let table = build ~scale:(scale_of quick) ~seed in
        Table.print table);
    Option.iter
      (fun tr ->
        Printf.printf "[trace: %d lookups seen, %d spans written]\n"
          (Telemetry.Trace.seen tr) (Telemetry.Trace.emitted tr))
      trace;
    if metrics then Table.print (Telemetry.Report.table ());
    `Ok ()
  end

let experiment_cmd name ~doc build =
  let term =
    Term.(
      ret
        (const (run_experiment build)
        $ quick_arg $ seed_arg $ trace_arg $ sample_arg $ metrics_arg))
  in
  Cmd.v (Cmd.info name ~doc) term

(* Fig. 6's size sweep can be restricted to one network size (the
   structural latency oracle makes isolated huge-n runs affordable), so
   it gets a hand-rolled command. *)
let fig6_cmd =
  let n_arg =
    let doc =
      "Measure a single network size $(docv) instead of the default sweep \
       (2048..131072 at paper scale)."
    in
    Arg.(value & opt (some int) None & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let run n =
    if (match n with Some n when n < 2 -> true | _ -> false) then
      fun _ _ _ _ _ -> `Error (false, "--n must be >= 2")
    else
      run_experiment (fun ~scale ~seed ->
          Fig6.run_with ?sizes:(Option.map (fun n -> [ n ]) n) ~scale ~seed ())
  in
  let doc = "Figure 6: latency and stretch on the transit-stub internet." in
  Cmd.v (Cmd.info "fig6" ~doc)
    Term.(
      ret (const run $ n_arg $ quick_arg $ seed_arg $ trace_arg $ sample_arg $ metrics_arg))

(* The robustness sweep takes fault-injection knobs on top of the
   standard experiment flags, so it gets a hand-rolled command. *)
let robustness_cmd =
  let fail_frac_arg =
    let doc =
      "Measure a single crashed-node fraction $(docv) instead of the default sweep \
       (0, 0.05, 0.1, 0.2, 0.3)."
    in
    Arg.(value & opt (some float) None & info [ "fail-frac" ] ~docv:"FRAC" ~doc)
  in
  let loss_arg =
    let doc = "Per-message loss probability (default 0.01)." in
    Arg.(value & opt (some float) None & info [ "loss" ] ~docv:"PROB" ~doc)
  in
  let n_arg =
    let doc =
      "Population size $(docv) instead of the scale default (8192 paper / 2048 quick); \
       the structural latency oracle admits sizes past 65536."
    in
    Arg.(value & opt (some int) None & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let probes_arg =
    let doc = "Lookups per sweep point (default 1500 paper / 300 quick)." in
    Arg.(value & opt (some int) None & info [ "probes" ] ~docv:"K" ~doc)
  in
  let run fail_frac loss n probes =
    let bad_prob = function Some f when f < 0.0 || f > 1.0 -> true | Some _ | None -> false in
    let bad_pos = function Some k when k < 1 -> true | Some _ | None -> false in
    if bad_prob fail_frac || bad_prob loss then
      fun _ _ _ _ _ -> `Error (false, "--fail-frac and --loss must be in [0, 1]")
    else if bad_pos n || bad_pos probes then
      fun _ _ _ _ _ -> `Error (false, "--n and --probes must be >= 1")
    else
      run_experiment (fun ~scale ~seed ->
          Robustness_bench.run_with
            ?fail_fracs:(Option.map (fun f -> [ f ]) fail_frac)
            ?loss ?n ?probes ~scale ~seed ())
  in
  let doc =
    "Message-level robustness: lookup success and latency vs crashed-node fraction \
     under loss, timeouts and retries (canon_net)."
  in
  Cmd.v (Cmd.info "robustness" ~doc)
    Term.(
      ret
        (const run $ fail_frac_arg $ loss_arg $ n_arg $ probes_arg $ quick_arg $ seed_arg
       $ trace_arg $ sample_arg $ metrics_arg))

(* The durability sweep adds replication knobs on top of the standard
   experiment flags. *)
let durability_cmd =
  let fail_frac_arg =
    let doc =
      "Measure a single crashed-node fraction $(docv) instead of the default sweep \
       (0.1, 0.2, 0.3, 0.5). The whole-domain outage row is always included."
    in
    Arg.(value & opt (some float) None & info [ "fail-frac" ] ~docv:"FRAC" ~doc)
  in
  let replicas_arg =
    let doc = "Replication degree $(docv) instead of the default sweep (2 and 3)." in
    Arg.(value & opt (some int) None & info [ "replicas" ] ~docv:"K" ~doc)
  in
  let spread_arg =
    let doc =
      "Replica placement policy: $(b,flat) (k-successor inside the storage domain) \
       or $(b,sibling) (one replica per distinct leaf domain, siblings first). \
       Default: both."
    in
    let policy =
      Arg.enum
        [
          ("flat", Canon_storage.Replica_set.Flat);
          ("sibling", Canon_storage.Replica_set.Sibling);
        ]
    in
    Arg.(value & opt (some policy) None & info [ "spread" ] ~docv:"POLICY" ~doc)
  in
  let run fail_frac replicas spread =
    let bad_prob = function Some f when f < 0.0 || f > 1.0 -> true | Some _ | None -> false in
    if bad_prob fail_frac then
      fun _ _ _ _ _ -> `Error (false, "--fail-frac must be in [0, 1]")
    else if (match replicas with Some k when k < 1 -> true | _ -> false) then
      fun _ _ _ _ _ -> `Error (false, "--replicas must be >= 1")
    else
      run_experiment (fun ~scale ~seed ->
          Durability.run_with
            ?fail_fracs:(Option.map (fun f -> [ f ]) fail_frac)
            ?ks:(Option.map (fun k -> [ k ]) replicas)
            ?spreads:(Option.map (fun s -> [ s ]) spread)
            ~scale ~seed ())
  in
  let doc =
    "Data durability: keys-surviving fraction vs crashed-node fraction and a \
     whole-domain outage, flat successor-replication vs hierarchical sibling-spread."
  in
  Cmd.v (Cmd.info "durability" ~doc)
    Term.(
      ret
        (const run $ fail_frac_arg $ replicas_arg $ spread_arg $ quick_arg $ seed_arg
       $ trace_arg $ sample_arg $ metrics_arg))

let churn_async_cmd =
  let churn_rate_arg =
    let doc = "Membership events per simulated second (default 100)." in
    Arg.(value & opt (some float) None & info [ "churn-rate" ] ~docv:"RATE" ~doc)
  in
  let lookup_rate_arg =
    let doc = "Lookup launches per simulated second (default 200)." in
    Arg.(value & opt (some float) None & info [ "lookup-rate" ] ~docv:"RATE" ~doc)
  in
  let events_arg =
    let doc = "Membership events in the burst (default 400 paper / 120 quick)." in
    Arg.(value & opt (some int) None & info [ "events" ] ~docv:"K" ~doc)
  in
  let n_arg =
    let doc = "Population size $(docv) instead of the scale default (4096 paper / 1024 quick)." in
    Arg.(value & opt (some int) None & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let lookups_arg =
    let doc = "Lookups per phase (default 800 paper / 200 quick)." in
    Arg.(value & opt (some int) None & info [ "lookups" ] ~docv:"K" ~doc)
  in
  let run churn_rate lookup_rate events n lookups =
    let bad_rate = function Some r when r <= 0.0 -> true | Some _ | None -> false in
    if bad_rate churn_rate || bad_rate lookup_rate then
      fun _ _ _ _ _ -> `Error (false, "--churn-rate and --lookup-rate must be > 0")
    else if (match events with Some e when e < 0 -> true | _ -> false) then
      fun _ _ _ _ _ -> `Error (false, "--events must be >= 0")
    else if
      (match n with Some k when k < 16 -> true | _ -> false)
      || (match lookups with Some k when k < 1 -> true | _ -> false)
    then fun _ _ _ _ _ -> `Error (false, "--n must be >= 16 and --lookups >= 1")
    else
      run_experiment (fun ~scale ~seed ->
          Churn_async.run_with ?churn_rate ?lookup_rate ?events ?n ?lookups ~scale ~seed ())
  in
  let doc =
    "Churn x async: lookup success and p50/p99 wall-clock during live churn — joins, \
     leaves and in-flight RPC hops on one event queue, Chord vs Crescendo live membership."
  in
  Cmd.v (Cmd.info "churn_async" ~doc)
    Term.(
      ret
        (const run $ churn_rate_arg $ lookup_rate_arg $ events_arg $ n_arg $ lookups_arg
       $ quick_arg $ seed_arg $ trace_arg $ sample_arg $ metrics_arg))

let commands =
  [
    experiment_cmd "fig3" ~doc:"Figure 3: average #links/node vs network size." Fig3.run;
    experiment_cmd "fig4" ~doc:"Figure 4: PDF of #links/node at 32K nodes." Fig4.run;
    experiment_cmd "fig5" ~doc:"Figure 5: average routing hops vs network size." Fig5.run;
    fig6_cmd;
    experiment_cmd "fig7" ~doc:"Figure 7: latency vs query locality." Fig7.run;
    experiment_cmd "fig8" ~doc:"Figure 8: path overlap fraction vs domain level." Fig8.run;
    experiment_cmd "fig9" ~doc:"Figure 9: inter-domain links in a 1000-source multicast tree."
      Fig9.run;
    experiment_cmd "theorems" ~doc:"Empirical check of Theorems 1/2/4/5." Theorems.run;
    experiment_cmd "variants"
      ~doc:"Degree/hops parity of all flat vs Canonical DHT pairs (Chord, Symphony, \
            ND-Chord, Kademlia, CAN)."
      Variants.run;
    experiment_cmd "lookahead" ~doc:"Greedy vs 1-lookahead routing on Symphony/Cacophony."
      Lookahead_bench.run;
    experiment_cmd "balance" ~doc:"Partition balance: random vs bisection vs hierarchical."
      Balance_bench.run;
    experiment_cmd "maintenance" ~doc:"Join/leave message cost and probe success under churn."
      Maintenance_bench.run;
    experiment_cmd "caching" ~doc:"Hierarchical caching hit rate and latency." Caching_bench.run;
    experiment_cmd "isolation"
      ~doc:"Fault isolation: intra-domain delivery under outside failures." Isolation.run;
    experiment_cmd "hybrid" ~doc:"LAN-clique + Crescendo hybrid structure ablation."
      Hybrid_bench.run;
    experiment_cmd "prefixcan" ~doc:"Prefix-tree CAN vs XOR-bucket CAN parity."
      Prefix_can_bench.run;
    experiment_cmd "skipnet" ~doc:"SkipNet vs Crescendo: locality and convergence (sec. 6)."
      Skipnet_bench.run;
    experiment_cmd "latency"
      ~doc:"Latency-oracle setup and query cost, and its exactness against Dijkstra."
      Latency_bench.run;
    robustness_cmd;
    durability_cmd;
    churn_async_cmd;
  ]

let default =
  let doc = "reproduction of 'Canon in G Major: Designing DHTs with Hierarchical Structure'" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Regenerates the tables and figures of the ICDCS 2004 paper from a pure-OCaml \
         implementation of Canon (Crescendo, Cacophony, ND-Crescendo, Kandy, Can-Can), its \
         flat baselines, a transit-stub internet model, hierarchical storage and caching, \
         partition balancing, and a churn simulator.";
      `P "Use $(b,CANON_SCALE=quick) or $(b,--quick) for fast reduced-scale runs.";
      `P
        "Every subcommand accepts $(b,--trace FILE) (per-lookup JSONL spans), \
         $(b,--trace-sample K) (sampling), and $(b,--metrics) (print the telemetry \
         registry: counters, gauges, and latency histograms with p50/p95/p99).";
    ]
  in
  Cmd.group (Cmd.info "canon" ~version:"1.0.0" ~doc ~man) commands

let () = exit (Cmd.eval default)
