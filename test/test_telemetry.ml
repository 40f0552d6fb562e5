(* Tests for the telemetry subsystem: histogram percentiles against a
   sorted-array oracle, span invariants on Fig. 5-style workloads,
   JSONL round-trips, sampling/retention bounds, registry reset, and
   the partial path carried by Router.Stuck. *)

open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng
module Json = Canon_telemetry.Json
module Metrics = Canon_telemetry.Metrics
module Span = Canon_telemetry.Span
module Sink = Canon_telemetry.Sink
module Trace = Canon_telemetry.Trace
module Report = Canon_telemetry.Report

let make_pop ?(seed = 1) ~levels ~n () =
  let rng = Rng.create seed in
  let tree =
    Canon_hierarchy.Domain_tree.of_spec
      (Canon_hierarchy.Domain_tree.uniform_spec ~fanout:4 ~levels)
  in
  Population.create rng ~tree ~policy:(Canon_hierarchy.Placement.Zipfian 1.25) ~n

(* --- Metrics ------------------------------------------------------ *)

let test_counters_and_gauges () =
  let c = Metrics.counter "test.counter" in
  let before = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter adds" (before + 5) (Metrics.value c);
  Alcotest.(check int) "same name same counter" (before + 5)
    (Metrics.value (Metrics.counter "test.counter"));
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge set" 2.5 (Metrics.gauge_value g);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test.counter\" is already a counter") (fun () ->
      ignore (Metrics.gauge "test.counter"))

(* The estimator interpolates inside one bucket, so its error against
   the exact nearest-rank percentile is bounded by the width of the
   bucket containing the oracle value. *)
let test_percentile_oracle () =
  let buckets = [| 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0 |] in
  let h = Metrics.histogram ~buckets "test.percentile" in
  let rng = Rng.create 99 in
  let values =
    Array.init 5000 (fun _ -> Float.of_int (1 + Rng.int_below rng 300) /. 1.3)
  in
  Array.iter (Metrics.observe h) values;
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let oracle = sorted.(max 0 (int_of_float (ceil (q *. Float.of_int n)) - 1)) in
      let est = Metrics.percentile h q in
      (* Bucket bounds enclosing the oracle value. *)
      let lo = ref 0.0 and hi = ref infinity in
      Array.iter
        (fun b ->
          if b < oracle then lo := b;
          if b >= oracle && !hi = infinity then hi := b)
        buckets;
      let hi = if !hi = infinity then sorted.(n - 1) else !hi in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f est %.3f within oracle bucket [%.3f, %.3f]" (q *. 100.0)
           est !lo hi)
        true
        (est >= !lo -. 1e-9 && est <= hi +. 1e-9))
    [ 0.5; 0.9; 0.95; 0.99 ];
  Alcotest.(check (float 1e-9)) "p0 is min" sorted.(0) (Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" sorted.(n - 1) (Metrics.percentile h 1.0)

let test_reset_zeroes () =
  let c = Metrics.counter "test.reset_counter" in
  let g = Metrics.gauge "test.reset_gauge" in
  let h = Metrics.histogram "test.reset_hist" in
  Metrics.add c 7;
  Metrics.set g 3.0;
  Metrics.observe h 12.0;
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zero") 0 v)
    snap.Metrics.counters;
  List.iter
    (fun (name, v) -> Alcotest.(check (float 0.0)) (name ^ " zero") 0.0 v)
    snap.Metrics.gauges;
  List.iter
    (fun (name, hs) ->
      Alcotest.(check int) (name ^ " count zero") 0 hs.Metrics.h_count;
      Alcotest.(check (float 0.0)) (name ^ " sum zero") 0.0 hs.Metrics.h_sum)
    snap.Metrics.histograms;
  (* Handles stay registered and usable after reset. *)
  Metrics.incr c;
  Alcotest.(check int) "counter alive after reset" 1 (Metrics.value c)

(* --- Spans on a Fig. 5-style workload ----------------------------- *)

let crescendo_overlay ~levels ~n =
  let pop = make_pop ~seed:(10 + levels) ~levels ~n () in
  (pop, Crescendo.build (Rings.build pop))

let test_span_invariants () =
  let _pop, overlay = crescendo_overlay ~levels:3 ~n:512 in
  (* A synthetic physical latency so cumulative latency is non-trivial. *)
  let latency u v = 1.0 +. Float.of_int ((u + v) mod 7) in
  let trace = Trace.create ~latency ~sink:(Sink.memory ()) () in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let src = Rng.int_below rng 512 and dst = Rng.int_below rng 512 in
    let route = Router.greedy_clockwise ~trace overlay ~src ~key:(Overlay.id overlay dst) in
    let span = List.nth (Trace.spans trace) (Trace.emitted trace - 1) in
    Alcotest.(check (array int)) "span path = route path" route.Route.nodes (Span.path span);
    Alcotest.(check int) "hops = events - 1" (Route.hops route) (Span.hops span);
    Alcotest.(check int) "hops field consistency"
      (Array.length span.Span.events - 1)
      (Span.hops span);
    (* Cumulative latency is monotone and matches the oracle sum. *)
    let cum = ref 0.0 in
    Array.iteri
      (fun i e ->
        if i = 0 then begin
          Alcotest.(check int) "source level" (-1) e.Span.level;
          Alcotest.(check (float 0.0)) "source latency" 0.0 e.Span.cum_latency
        end
        else begin
          cum := !cum +. latency span.Span.events.(i - 1).Span.node e.Span.node;
          Alcotest.(check (float 1e-9)) "cumulative latency" !cum e.Span.cum_latency;
          Alcotest.(check bool) "hop level in range" true (e.Span.level >= 0 && e.Span.level <= 3)
        end)
      span.Span.events;
    Alcotest.(check (float 1e-9))
      "total latency = Route.latency" (Route.latency route ~node_latency:latency)
      (Span.total_latency span)
  done;
  Alcotest.(check int) "one span per lookup" 200 (Trace.emitted trace)

let test_span_levels_hierarchical () =
  (* On a multi-level Crescendo overlay some traced hops must use
     deeper-than-root links (intra-domain locality is the paper's whole
     point). *)
  let _pop, overlay = crescendo_overlay ~levels:3 ~n:512 in
  let trace = Trace.create () in
  let rng = Rng.create 6 in
  for _ = 1 to 300 do
    let src = Rng.int_below rng 512 and dst = Rng.int_below rng 512 in
    ignore (Router.greedy_clockwise ~trace overlay ~src ~key:(Overlay.id overlay dst))
  done;
  let deep =
    List.exists
      (fun s ->
        Array.exists (fun e -> e.Span.level > 0) s.Span.events)
      (Trace.spans trace)
  in
  Alcotest.(check bool) "some hop uses a deeper-level link" true deep

(* --- JSONL round-trip --------------------------------------------- *)

let test_jsonl_roundtrip () =
  let _pop, overlay = crescendo_overlay ~levels:2 ~n:256 in
  let latency u v = 0.5 +. Float.of_int ((3 * u + v) mod 11) in
  let trace = Trace.create ~latency () in
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    let src = Rng.int_below rng 256 and dst = Rng.int_below rng 256 in
    ignore (Router.greedy_clockwise ~trace overlay ~src ~key:(Overlay.id overlay dst))
  done;
  List.iter
    (fun span ->
      let line = Span.to_jsonl span in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Json.of_string line with
      | Error e -> Alcotest.failf "parse error: %s" e
      | Ok json -> (
          match Span.of_json json with
          | Error e -> Alcotest.failf "decode error: %s" e
          | Ok span' ->
              Alcotest.(check int) "id" span.Span.id span'.Span.id;
              Alcotest.(check string) "kind" span.Span.kind span'.Span.kind;
              Alcotest.(check int) "src" span.Span.src span'.Span.src;
              Alcotest.(check int) "key" span.Span.key span'.Span.key;
              Alcotest.(check bool) "outcome" true (span.Span.outcome = span'.Span.outcome);
              Alcotest.(check (array int)) "path" (Span.path span) (Span.path span');
              Array.iteri
                (fun i e ->
                  let e' = span'.Span.events.(i) in
                  Alcotest.(check int) "event level" e.Span.level e'.Span.level;
                  Alcotest.(check (float 1e-12)) "event latency" e.Span.cum_latency
                    e'.Span.cum_latency)
                span.Span.events))
    (Trace.spans trace)

let test_jsonl_file_sink () =
  let file = Filename.temp_file "canon_trace" ".jsonl" in
  let _pop, overlay = crescendo_overlay ~levels:2 ~n:128 in
  let trace = Trace.create ~sink:(Sink.jsonl_file file) () in
  let rng = Rng.create 8 in
  for _ = 1 to 25 do
    let src = Rng.int_below rng 128 and dst = Rng.int_below rng 128 in
    ignore (Router.greedy_clockwise ~trace overlay ~src ~key:(Overlay.id overlay dst))
  done;
  Trace.flush trace;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove file;
  Alcotest.(check int) "one line per span" 25 (List.length !lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "invalid JSONL line: %s" e)
    !lines

(* --- sampling and retention --------------------------------------- *)

let test_sampling_and_capacity () =
  let trace = Trace.create ~capacity:5 ~sample_every:3 () in
  for i = 0 to 9 do
    Trace.record trace ~kind:"t" ~key:i ~outcome:Span.Arrived ~nodes:[| i |]
      ~level:(fun _ _ -> 0) ()
  done;
  Alcotest.(check int) "seen all" 10 (Trace.seen trace);
  (* Records 1, 4, 7, 10 are kept (1st, then every 3rd). *)
  Alcotest.(check int) "sampled every 3rd" 4 (Trace.emitted trace);
  let trace2 = Trace.create ~capacity:5 () in
  for i = 0 to 19 do
    Trace.record trace2 ~kind:"t" ~key:i ~outcome:Span.Arrived ~nodes:[| i |]
      ~level:(fun _ _ -> 0) ()
  done;
  Alcotest.(check int) "emitted unbounded" 20 (Trace.emitted trace2);
  let retained = Trace.spans trace2 in
  Alcotest.(check int) "retention bounded" 5 (List.length retained);
  Alcotest.(check int) "keeps most recent" 19
    (List.nth retained 4).Span.key

(* --- Stuck carries the partial path ------------------------------- *)

let test_stuck_partial_path () =
  (* A 3-node chain with an artificially tiny hop budget (n = 0 gives
     budget 1): routing 0 -> 1 -> 2 exceeds it at the second hop. *)
  let ids = [| 10; 20; 30 |] in
  let links = [| [| 1 |]; [| 2 |]; [||] |] in
  let trace = Trace.create () in
  let attempt () =
    ignore
      (Router.greedy_clockwise_generic ~trace ~n:0 ~ids
         ~links:(fun v -> links.(v))
         ~src:0 ~key:30 ())
  in
  (try
     attempt ();
     Alcotest.fail "expected Router.Stuck"
   with Router.Stuck { at; hops; path; _ } ->
     Alcotest.(check int) "stuck at" 1 at;
     Alcotest.(check int) "stuck hops" 1 hops;
     Alcotest.(check (array int)) "partial path" [| 0; 1 |] path);
  (* The trace saw the stuck lookup as a span too. *)
  match Trace.spans trace with
  | [ span ] ->
      Alcotest.(check bool) "outcome stuck" true (span.Span.outcome = Span.Stuck);
      Alcotest.(check (array int)) "span partial path" [| 0; 1 |] (Span.path span)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* --- Report ------------------------------------------------------- *)

let test_report_renders () =
  Metrics.add (Metrics.counter "test.report_counter") 3;
  Metrics.observe (Metrics.histogram "test.report_hist") 4.2;
  let table = Report.table () in
  let rows = Canon_stats.Table.rows table in
  Alcotest.(check bool) "table non-empty" true (List.length rows > 0);
  Alcotest.(check bool) "counter row present" true
    (List.exists (fun row -> List.hd row = "test.report_counter") rows);
  let json = Json.to_string (Report.metrics_json ()) in
  match Json.of_string json with
  | Error e -> Alcotest.failf "metrics json invalid: %s" e
  | Ok doc ->
      Alcotest.(check bool) "has counters" true (Json.member "counters" doc <> None);
      Alcotest.(check bool) "has histograms" true (Json.member "histograms" doc <> None)

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        Alcotest.test_case "percentiles vs sorted oracle" `Quick test_percentile_oracle;
        Alcotest.test_case "reset zeroes the registry" `Quick test_reset_zeroes;
        Alcotest.test_case "span invariants (fig5 workload)" `Quick test_span_invariants;
        Alcotest.test_case "hierarchical link levels" `Quick test_span_levels_hierarchical;
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "jsonl file sink" `Quick test_jsonl_file_sink;
        Alcotest.test_case "sampling and retention" `Quick test_sampling_and_capacity;
        Alcotest.test_case "stuck carries partial path" `Quick test_stuck_partial_path;
        Alcotest.test_case "report rendering" `Quick test_report_renders;
      ] );
  ]
