(* The simulator benchmark: one workload per process.

     main.exe --workload static_lookup --seed 1 --seconds 30 --trace 0

   With --trace 0 the workload is set up three times (the median is
   setup_s), then run once untraced; the last line of standard output
   is a JSON object with the end-to-end metrics. With --trace 1 it runs
   untraced once, then set up and run again with spans around every
   call into a layer; a sample of the spans goes to
   perfbench/out/<workload>.spans.csv and the last line carries the
   per-layer metrics and the tracing overhead. Any correctness violation
   exits with code 1. *)

module W = Canon_perfbench.Workloads
module Spans = Canon_perfbench.Spans
module Metrics = Canon_telemetry.Metrics

(* Rounds per --seconds: sized so the timed phase takes about two
   thirds of that on a 2-core x86-64 host (2 GHz Xeon), leaving the rest
   for set-up and for the host's slow spells. The round count, not the
   clock, ends the timed phase, so every simulated output is a function
   of the seed and --seconds alone. *)
let rounds_per_second = function
  | "static_lookup" -> 0.34
  | "faulty_kv" -> 1.1
  | "live_churn" -> 1.2
  | _ -> 0.0

let usage =
  "main.exe --workload (static_lookup|faulty_kv|live_churn) --seed N --seconds S --trace (0|1)"

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

(* Set-ups measured for setup_s; the median is reported. *)
let setups = 3

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_int seconds, "S timed-phase length (sets the op count)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
  ]

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let s_of_ns ns = Float.of_int ns /. 1e9

(* Host metrics come from the rounds least disturbed by the host, whose
   speed drifts by tens of percent over seconds to minutes: throughput is
   the 90th percentile of the rounds' throughputs, a per-op percentile the
   10th percentile of the rounds' values (nearest rank). *)
let over_rounds (r : W.result) ~best f =
  let start = ref 0 in
  let per_round =
    Array.mapi
      (fun k n ->
        let x = f k (Array.sub r.W.op_ns !start n) in
        start := !start + n;
        x)
      r.W.round_ops
  in
  W.percentile per_round (if best = `High then 90.0 else 10.0)

let ops_per_s r =
  over_rounds r ~best:`High (fun k ops ->
      Float.of_int (Array.length ops) /. s_of_ns r.W.round_ns.(k))

(* Nearest-rank percentile of a round's host op times, in microseconds. *)
let op_us r p =
  over_rounds r ~best:`Low (fun _ ops ->
      W.percentile (Array.map (fun ns -> Float.of_int ns /. 1e3) ops) p)

let timed_ns (r : W.result) = Array.fold_left ( + ) 0 r.W.round_ns

(* Sets up [w] [times] times, dropping every build but the last; returns
   the set-up seconds of each and the last timed phase. *)
let setup_runs w ~rounds ~times tr =
  let secs = Array.make times 0.0 in
  let run = ref None in
  for k = 0 to times - 1 do
    run := None;
    Gc.compact ();
    Metrics.reset ();
    let t0 = Spans.now_ns () in
    let f = w.W.setup ~scale:W.Full ~seed:!seed ~rounds tr in
    secs.(k) <- s_of_ns (Spans.now_ns () - t0);
    run := Some f
  done;
  Gc.full_major ();
  match !run with Some f -> (secs, f) | None -> assert false

(* --- output --------------------------------------------------------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct (r : W.result) metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.W.attempted r.W.failed (String.concat ", " fields)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, value, unit) -> Printf.printf "  %-30s %16.6g %s\n" name value unit) rows

(* What the simulated model produced: must not depend on tracing. *)
let sim_outputs (r : W.result) =
  (r.W.attempted, r.W.failed, r.W.sim_p50, r.W.sim_p95, r.W.sim_p99, r.W.counters, r.W.layer)

let check_correct name (r : W.result) extra =
  let violations = r.W.violations @ extra in
  List.iter (fun v -> Printf.printf "VIOLATION (%s): %s\n" name v) violations;
  violations = []

(* --- trace 0: end-to-end --------------------------------------------- *)

let end_to_end w ~rounds =
  let secs, run = setup_runs w ~rounds ~times:setups None in
  let r = run () in
  let heap_mib =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let metrics =
    [
      ("setup_s", W.percentile secs 50.0, "s");
      ("ops_per_s", ops_per_s r, "1/s");
      ("sim_ms_p50", r.W.sim_p50, "ms");
      ("peak_heap_mib", heap_mib, "MiB");
    ]
  in
  (* Printed, not in the result line: their spread across seeds on the
     reference host exceeds any bound BENCHMARK.json may set (see
     perfbench/README.md). *)
  let unbounded =
    [
      ("op_us_p50", op_us r 50.0, "us");
      ("op_us_p99", op_us r 99.0, "us");
      ("sim_ms_p95", r.W.sim_p95, "ms");
      ("sim_ms_p99", r.W.sim_p99, "ms");
      ( "fail_frac",
        Float.of_int r.W.failed /. Float.of_int (max 1 r.W.attempted),
        "ratio (simulated)" );
    ]
  in
  print_table
    (Printf.sprintf "%s seed=%d: %d ops in %d rounds, end to end (host time except sim_ms_*)"
       w.W.name !seed r.W.attempted rounds)
    (metrics @ unbounded);
  Printf.printf "  round ops_per_s: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun k n -> Printf.sprintf "%.0f" (Float.of_int n /. s_of_ns r.W.round_ns.(k)))
             r.W.round_ops)));
  let correct = check_correct w.W.name r [] in
  print_result ~correct r metrics;
  correct

(* --- trace 1: per layer ---------------------------------------------- *)

let per_layer w ~rounds =
  let _, run = setup_runs w ~rounds ~times:1 None in
  let plain = run () in
  let spans = Spans.create () in
  let _, run = setup_runs w ~rounds ~times:1 (Some spans) in
  let timed_from = Spans.length spans in
  let traced = run () in
  let lookup summary name = List.assoc_opt name summary in
  let setup_sum = Spans.summarize spans and timed_sum = Spans.summarize ~from:timed_from spans in
  let setup_s name =
    match lookup setup_sum name with Some s -> s_of_ns s.Spans.total_ns | None -> 0.0
  in
  let self_ns name = match lookup timed_sum name with Some s -> s.Spans.self_ns | None -> 0 in
  let self_s name = s_of_ns (self_ns name) in
  let calls name = match lookup timed_sum name with Some s -> s.Spans.calls | None -> 0 in
  let counter name = Float.of_int (Option.value ~default:0 (List.assoc_opt name plain.W.counters)) in
  let layer name = Option.value ~default:0.0 (List.assoc_opt name plain.W.layer) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let overhead_pct =
    100.0 *. (Float.of_int (timed_ns traced) /. Float.of_int (timed_ns plain) -. 1.0)
  in
  let timed_s = s_of_ns (timed_ns traced) in
  (* A layer's own host time as a share of the traced timed phase. A
     share, not a time, because it reads 0 on a workload that bypasses
     the layer. *)
  let pct names = 100.0 *. List.fold_left (fun acc n -> acc +. self_s n) 0.0 names /. timed_s in
  let metrics =
    [
      ("topology.generate_s", setup_s "topology.generate", "s");
      ( "overlay.build_s",
        setup_s "rings.build" +. setup_s "overlay.build" +. setup_s "churn.prepare",
        "s" );
      ("latency.calls", Float.of_int (calls "latency.node_latency"), "count");
      ("latency.busy_s", self_s "latency.node_latency", "s");
      ("latency.self_pct", pct [ "latency.node_latency" ], "%");
      ("latency.rows_computed", layer "latency.rows_computed", "count");
      ("latency.hit_ratio", layer "latency.hit_ratio", "ratio");
      ("router.self_pct", pct [ "router.greedy_clockwise" ], "%");
      ("router.hops", layer "router.hops", "count");
      ("net.lookups", counter "net.lookups", "count");
      ("net.messages", counter "net.messages", "count");
      ("net.msgs_per_lookup", ratio (counter "net.messages") (counter "net.lookups"), "ratio");
      ("net.timeouts", counter "net.timeouts", "count");
      ("net.retries", counter "net.retries", "count");
      ("net.rerouted", counter "net.rerouted", "count");
      ("net.reanchors", counter "net.reanchors", "count");
      ("net.links_over_timeout", layer "net.links_over_timeout", "count");
      ("net.handle_calls", Float.of_int (calls "net.handle"), "count");
      ("net.handle_self_pct", pct [ "net.handle" ], "%");
      ("net.launch_self_pct", pct [ "net.launch" ], "%");
      ("store.get_self_pct", pct [ "store.get" ], "%");
      ("store.put_self_pct", pct [ "store.put" ], "%");
      ("replication.read_repairs", counter "replication.read_repairs", "count");
      ("replication.stale_reads", counter "replication.stale_reads", "count");
      ("churn.apply_self_pct", pct [ "churn.apply" ], "%");
      ("churn.events", layer "churn.events", "count");
      ("maintenance.join_msgs_mean", layer "maintenance.join_msgs_mean", "msgs");
      ("maintenance.leave_msgs_mean", layer "maintenance.leave_msgs_mean", "msgs");
      ("event_queue.pushes", layer "event_queue.pushes", "count");
      ("event_queue.pops", layer "event_queue.pops", "count");
      ("event_queue.self_pct", pct [ "event_queue.push"; "event_queue.pop" ], "%");
      ("event_queue.depth_max", layer "event_queue.depth_max", "count");
      ("live_view.bumps", layer "live_view.bumps", "count");
      ("live_view.self_pct", pct [ "live_view.bump" ], "%");
      ("gc.minor_mwords", plain.W.gc_minor_words /. 1e6, "Mwords");
      ("gc.major_collections", Float.of_int plain.W.gc_major, "count");
      ("bench.self_s", self_s "op" +. self_s "sim.step", "s");
      ("trace.overhead_pct", overhead_pct, "%");
    ]
  in
  (* The same layers as host seconds, named as in perfbench/README.md. *)
  let busy =
    [
      ("live_churn.abandoned", layer "live_churn.abandoned", "count");
      ("rings.build_s", setup_s "rings.build", "s");
      ("churn.prepare_s", setup_s "churn.prepare", "s");
      ("router.busy_s", self_s "router.greedy_clockwise", "s");
      ( "router.ns_per_hop",
        ratio (Float.of_int (self_ns "router.greedy_clockwise")) (layer "router.hops"),
        "ns" );
      ("net.handle_busy_s", self_s "net.handle", "s");
      ("net.launch_busy_s", self_s "net.launch", "s");
      ("store.get_busy_s", self_s "store.get", "s");
      ("store.put_busy_s", self_s "store.put", "s");
      ("churn.apply_busy_s", self_s "churn.apply", "s");
      ("event_queue.busy_s", self_s "event_queue.push" +. self_s "event_queue.pop", "s");
      ("live_view.busy_s", self_s "live_view.bump", "s");
    ]
  in
  Printf.printf "%s seed=%d: %d ops in %d rounds, traced self times (host s)\n" w.W.name !seed
    traced.W.attempted rounds;
  Printf.printf "  %-26s %10s %12s %12s %8s\n" "span" "calls" "total_s" "self_s" "self%";
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-26s %10d %12.6f %12.6f %7.2f%%\n" name s.Spans.calls
        (s_of_ns s.Spans.total_ns) (s_of_ns s.Spans.self_ns)
        (100.0 *. s_of_ns s.Spans.self_ns /. timed_s))
    (List.filter (fun (_, s) -> s.Spans.calls > 0) timed_sum);
  Printf.printf "  untraced ops_per_s %.1f, traced ops_per_s %.1f, tracing overhead %.2f%%\n"
    (ops_per_s plain) (ops_per_s traced) overhead_pct;
  print_table "per layer" (metrics @ busy);
  let nesting = Spans.check_nesting spans in
  let extra =
    (if sim_outputs plain <> sim_outputs traced then
       [ "traced run's simulated outputs differ from the untraced run's" ]
     else [])
    @
    if nesting > 0 then [ Printf.sprintf "%d ops whose child spans outlast the op" nesting ]
    else []
  in
  let dir = Filename.concat "perfbench" "out" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (w.W.name ^ ".spans.csv") in
  (try
     let written = Spans.write_csv ~every:10 spans path in
     Printf.printf "  %d of %d spans (set-up and every 10th op) written to %s\n" written
       (Spans.length spans) path
   with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  let correct = check_correct w.W.name plain extra && check_correct w.W.name traced [] in
  print_result ~correct plain metrics;
  correct

let () =
  Arg.parse specs (fun a -> fail ("unexpected argument " ^ a)) usage;
  let w = match W.find !workload with Some w -> w | None -> fail ("unknown workload " ^ !workload) in
  if !seconds < 1 then fail "--seconds must be >= 1";
  let rounds =
    max 3 (Float.to_int (Float.round (Float.of_int !seconds *. rounds_per_second w.W.name)))
  in
  let correct =
    match !trace with
    | 0 -> end_to_end w ~rounds
    | 1 -> per_layer w ~rounds
    | _ -> fail "--trace must be 0 or 1"
  in
  exit (if correct then 0 else 1)
