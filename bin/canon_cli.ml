(* canon — command-line front end for the Canon reproduction.

   One subcommand per entry of [Canon_experiments.Registry.all]: each
   regenerates one of the paper's tables/figures (or an extension
   experiment) and prints it as an aligned text table. *)

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

(* An [Invalid_argument] from the experiment is a bad flag value: every
   [run_with] checks its arguments on entry, before any set-up. *)
let run_experiment (e : Registry.t) run quick seed trace_file sample_every metrics =
  if sample_every < 1 then `Error (false, "--trace-sample must be >= 1")
  else begin
    match
      Option.map
        (fun file ->
          Telemetry.Trace.create ~sample_every ~sink:(Telemetry.Sink.jsonl_file file) ())
        trace_file
    with
    | exception Sys_error msg -> `Error (false, "cannot open trace file: " ^ msg)
    | trace -> (
        Telemetry.Trace.set_ambient trace;
        let finally () =
          Telemetry.Trace.set_ambient None;
          Option.iter Telemetry.Trace.flush trace
        in
        match
          Fun.protect ~finally (fun () -> Registry.run { e with run } ~scale:(scale_of quick) ~seed)
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | table ->
            Table.print table;
            Option.iter
              (fun tr ->
                Printf.printf "[trace: %d lookups seen, %d spans written]\n"
                  (Telemetry.Trace.seen tr) (Telemetry.Trace.emitted tr))
              trace;
            if metrics then Table.print (Telemetry.Report.table ());
            `Ok ())
  end

let experiment_cmd (e : Registry.t) run =
  let term =
    Term.(
      ret
        (const (run_experiment e)
        $ run $ quick_arg $ seed_arg $ trace_arg $ sample_arg $ metrics_arg))
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc) term

(* The experiments that take flags of their own: each term yields the
   run function with those flags applied. *)
let opt kind names docv doc = Arg.(value & opt (some kind) None & info names ~docv ~doc)

let n_arg doc = opt Arg.int [ "n"; "nodes" ] "N" doc

let fail_frac_arg doc = opt Arg.float [ "fail-frac" ] "FRAC" doc

let one o = Option.map (fun x -> [ x ]) o

let fig6 =
  Term.(
    const (fun n ~scale ~seed -> Fig6.run_with ?sizes:(one n) ~scale ~seed ())
    $ n_arg
        "Measure a single network size $(docv) instead of the default sweep (2048..131072 \
         at paper scale).")

let robustness =
  Term.(
    const (fun fail_frac loss n probes ~scale ~seed ->
        Robustness_bench.run_with ?fail_fracs:(one fail_frac) ?loss ?n ?probes ~scale ~seed ())
    $ fail_frac_arg
        "Measure a single crashed-node fraction $(docv) instead of the default sweep (0, \
         0.05, 0.1, 0.2, 0.3)."
    $ opt Arg.float [ "loss" ] "PROB" "Per-message loss probability (default 0.01)."
    $ n_arg
        "Population size $(docv) instead of the scale default (8192 paper / 2048 quick); \
         the structural latency oracle admits sizes past 65536."
    $ opt Arg.int [ "probes" ] "K" "Lookups per sweep point (default 1500 paper / 300 quick).")

let durability =
  let policy =
    Arg.enum
      [ ("flat", Canon_storage.Replica_set.Flat); ("sibling", Canon_storage.Replica_set.Sibling) ]
  in
  Term.(
    const (fun fail_frac replicas spread ~scale ~seed ->
        Durability.run_with ?fail_fracs:(one fail_frac) ?ks:(one replicas)
          ?spreads:(one spread) ~scale ~seed ())
    $ fail_frac_arg
        "Measure a single crashed-node fraction $(docv) instead of the default sweep (0.1, \
         0.2, 0.3, 0.5). The whole-domain outage row is always included."
    $ opt Arg.int [ "replicas" ] "K"
        "Replication degree $(docv) instead of the default sweep (2 and 3)."
    $ opt policy [ "spread" ] "POLICY"
        "Replica placement policy: $(b,flat) (k-successor inside the storage domain) or \
         $(b,sibling) (one replica per distinct leaf domain, siblings first). Default: both.")

let churn_async =
  Term.(
    const (fun churn_rate lookup_rate events n lookups ~scale ~seed ->
        Churn_async.run_with ?churn_rate ?lookup_rate ?events ?n ?lookups ~scale ~seed ())
    $ opt Arg.float [ "churn-rate" ] "RATE"
        "Membership events per simulated second (default 100)."
    $ opt Arg.float [ "lookup-rate" ] "RATE" "Lookup launches per simulated second (default 200)."
    $ opt Arg.int [ "events" ] "K" "Membership events in the burst (default 400 paper / 120 quick)."
    $ n_arg "Population size $(docv) instead of the scale default (4096 paper / 1024 quick)."
    $ opt Arg.int [ "lookups" ] "K" "Lookups per phase (default 800 paper / 200 quick).")

let commands =
  List.map
    (fun (e : Registry.t) ->
      experiment_cmd e
        (match e.name with
        | "fig6" -> fig6
        | "robustness" -> robustness
        | "durability" -> durability
        | "churn_async" -> churn_async
        | _ -> Term.const e.run))
    Registry.all

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
