(* Tests for the telemetry subsystem: histogram percentiles against a
   sorted-array oracle, span invariants on Fig. 5-style workloads,
   JSONL round-trips, sampling/retention bounds, registry reset, and
   the partial path carried by Router.Stuck. *)

open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng
module Json = Json_reader
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
  Alcotest.(check (float 1e-9)) "gauge set" 2.5
    (List.assoc "test.gauge" (Metrics.snapshot ()).Metrics.gauges);
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

(* Runs [f] with [trace] installed as the ambient trace, the only way an
   engine is traced, and leaves none installed. *)
let with_ambient trace f =
  Trace.set_ambient (Some trace);
  Fun.protect ~finally:(fun () -> Trace.set_ambient None) f

let test_span_invariants () =
  let _pop, overlay = crescendo_overlay ~levels:3 ~n:512 in
  (* A synthetic physical latency so cumulative latency is non-trivial. *)
  let latency u v = 1.0 +. Float.of_int ((u + v) mod 7) in
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  Trace.set_latency trace (Some latency);
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let src = Rng.int_below rng 512 and dst = Rng.int_below rng 512 in
    let route =
      with_ambient trace (fun () ->
          Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))
    in
    let span = List.nth (Sink.spans sink) (Trace.emitted trace - 1) in
    Alcotest.(check (array int)) "span path = route path" route.Route.nodes (Span.path span);
    Alcotest.(check int) "hops = events - 1" (Route.hops route)
      (Array.length span.Span.events - 1);
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
      span.Span.events.(Route.hops route).Span.cum_latency
  done;
  Alcotest.(check int) "one span per lookup" 200 (Trace.emitted trace)

let test_span_levels_hierarchical () =
  (* On a multi-level Crescendo overlay some traced hops must use
     deeper-than-root links (intra-domain locality is the paper's whole
     point). *)
  let _pop, overlay = crescendo_overlay ~levels:3 ~n:512 in
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  let rng = Rng.create 6 in
  with_ambient trace (fun () ->
      for _ = 1 to 300 do
        let src = Rng.int_below rng 512 and dst = Rng.int_below rng 512 in
        ignore (Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))
      done);
  let deep =
    List.exists
      (fun s ->
        Array.exists (fun e -> e.Span.level > 0) s.Span.events)
      (Sink.spans sink)
  in
  Alcotest.(check bool) "some hop uses a deeper-level link" true deep

(* --- JSONL round-trip --------------------------------------------- *)

let test_jsonl_roundtrip () =
  let _pop, overlay = crescendo_overlay ~levels:2 ~n:256 in
  let latency u v = 0.5 +. Float.of_int ((3 * u + v) mod 11) in
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  Trace.set_latency trace (Some latency);
  let rng = Rng.create 7 in
  with_ambient trace (fun () ->
      for _ = 1 to 50 do
        let src = Rng.int_below rng 256 and dst = Rng.int_below rng 256 in
        ignore (Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))
      done);
  (* "%.17g" prints a whole float without a point, which parses back as
     an Int. *)
  let number = function
    | Some (Json.Float x) -> x
    | Some (Json.Int n) -> Float.of_int n
    | _ -> Float.nan
  in
  List.iter
    (fun span ->
      let line = Span.to_jsonl span in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Json.of_string line with
      | Error e -> Alcotest.failf "parse error: %s" e
      | Ok json ->
          let field name = Json.member name json in
          let check name expected =
            Alcotest.(check bool) name true (field name = Some expected)
          in
          check "id" (Json.Int span.Span.id);
          check "kind" (Json.String span.Span.kind);
          check "src" (Json.Int span.Span.src);
          check "key" (Json.Int span.Span.key);
          check "outcome" (Json.String (Span.outcome_to_string span.Span.outcome));
          check "hops" (Json.Int (Array.length span.Span.events - 1));
          let events =
            match field "events" with Some (Json.List evs) -> Array.of_list evs | _ -> [||]
          in
          Alcotest.(check int) "one event per node" (Array.length span.Span.events)
            (Array.length events);
          Array.iteri
            (fun i e ->
              let ev name = Json.member name events.(i) in
              Alcotest.(check bool) "event node" true (ev "node" = Some (Json.Int e.Span.node));
              Alcotest.(check bool) "event level" true (ev "level" = Some (Json.Int e.Span.level));
              Alcotest.(check (float 0.0)) "event latency" e.Span.cum_latency (number (ev "lat")))
            span.Span.events)
    (Sink.spans sink)

let test_jsonl_file_sink () =
  let file = Filename.temp_file "canon_trace" ".jsonl" in
  let _pop, overlay = crescendo_overlay ~levels:2 ~n:128 in
  let trace = Trace.create ~sink:(Sink.jsonl_file file) () in
  let rng = Rng.create 8 in
  with_ambient trace (fun () ->
      for _ = 1 to 25 do
        let src = Rng.int_below rng 128 and dst = Rng.int_below rng 128 in
        ignore (Router.greedy_clockwise overlay ~src ~key:(Overlay.id overlay dst))
      done);
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

(* --- Spans and sinks ------------------------------------------------ *)

let test_span_make () =
  let nodes = [| 4; 9; 2 |] in
  let level u v = if (u, v) = (4, 9) then 0 else 2 in
  let latency u v = Float.of_int (u + v) in
  let span =
    Span.make ~id:7 ~kind:"demo" ~key:123 ~outcome:Span.Arrived ~nodes ~level ~latency ()
  in
  Alcotest.(check int) "src = first node" 4 span.Span.src;
  Alcotest.(check (array int)) "path" nodes (Span.path span);
  Alcotest.(check (list int)) "levels, -1 at the source" [ -1; 0; 2 ]
    (Array.to_list (Array.map (fun e -> e.Span.level) span.Span.events));
  Alcotest.(check (list (float 1e-9))) "cumulative latency" [ 0.0; 13.0; 24.0 ]
    (Array.to_list (Array.map (fun e -> e.Span.cum_latency) span.Span.events));
  let hop_only = Span.make ~id:0 ~kind:"demo" ~key:0 ~outcome:Span.Stuck ~nodes ~level () in
  Alcotest.(check (list (float 0.0))) "no oracle, no latency" [ 0.0; 0.0; 0.0 ]
    (Array.to_list (Array.map (fun e -> e.Span.cum_latency) hop_only.Span.events));
  Alcotest.check_raises "empty node sequence" (Invalid_argument "Span.make: empty node sequence")
    (fun () ->
      ignore (Span.make ~id:0 ~kind:"demo" ~key:0 ~outcome:Span.Arrived ~nodes:[||] ~level ()))

let read_lines file =
  let ic = open_in file in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

(* The null sink drops every span; a memory sink keeps spans oldest
   first and drops writes after close; a file sink writes one
   [Span.to_jsonl] line per span and none after close, and keeps none in
   memory. Closing twice is harmless. *)
let test_sinks () =
  let span i =
    Span.make ~id:i ~kind:"t" ~key:(100 + i) ~outcome:Span.Arrived ~nodes:[| i; i + 1 |]
      ~level:(fun _ _ -> 0) ()
  in
  let keys sink = List.map (fun s -> s.Span.key) (Sink.spans sink) in
  Sink.write Sink.null (span 0);
  Alcotest.(check (list int)) "null keeps nothing" [] (keys Sink.null);
  let mem = Sink.memory () in
  Sink.write mem (span 1);
  Sink.write mem (span 2);
  Sink.close mem;
  Sink.write mem (span 3);
  Alcotest.(check (list int)) "memory: oldest first, closed drops" [ 101; 102 ] (keys mem);
  let file = Filename.temp_file "canon_sink" ".jsonl" in
  let sink = Sink.jsonl_file file in
  Sink.write sink (span 4);
  Sink.write sink (span 5);
  Sink.close sink;
  Sink.close sink;
  Sink.write sink (span 6);
  Alcotest.(check (list int)) "file sink keeps nothing in memory" [] (keys sink);
  let lines = read_lines file in
  Sys.remove file;
  Alcotest.(check (list string)) "file: one line a span, none after close"
    [ Span.to_jsonl (span 4); Span.to_jsonl (span 5) ]
    lines

(* An oracle installed after creation prices the spans recorded after
   it, and clearing it returns to hop-only spans. *)
let test_trace_set_latency_and_ambient () =
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  let level _ _ = 0 in
  let record () =
    Trace.record trace ~kind:"demo" ~key:0 ~outcome:Span.Arrived ~nodes:[| 1; 2 |] ~level ()
  in
  let last_latency () =
    let spans = Sink.spans sink in
    (List.nth spans (List.length spans - 1)).Span.events.(1).Span.cum_latency
  in
  record ();
  Alcotest.(check (float 0.0)) "hop-only before" 0.0 (last_latency ());
  Trace.set_latency trace (Some (fun _ _ -> 2.5));
  record ();
  Alcotest.(check (float 0.0)) "priced after set_latency" 2.5 (last_latency ());
  Trace.set_latency trace None;
  record ();
  Alcotest.(check (float 0.0)) "hop-only once cleared" 0.0 (last_latency ());
  Alcotest.(check bool) "no ambient trace by default" true (Option.is_none (Trace.ambient ()));
  Trace.set_ambient (Some trace);
  let installed = match Trace.ambient () with Some t -> t == trace | None -> false in
  Trace.set_ambient None;
  Alcotest.(check bool) "ambient is the installed trace" true installed;
  Alcotest.(check bool) "ambient cleared" true (Option.is_none (Trace.ambient ()))

(* --- sampling ----------------------------------------------------- *)

(* The trace counts every record and writes the 1st, (k+1)-th,
   (2k+1)-th … to its sink, numbering the written spans from 0. *)
let test_sampling () =
  let sink = Sink.memory () in
  let trace = Trace.create ~sample_every:3 ~sink () in
  for i = 0 to 9 do
    Trace.record trace ~kind:"t" ~key:i ~outcome:Span.Arrived ~nodes:[| i |]
      ~level:(fun _ _ -> 0) ()
  done;
  Alcotest.(check int) "seen all" 10 (Trace.seen trace);
  (* Records 1, 4, 7, 10 are kept (1st, then every 3rd). *)
  Alcotest.(check int) "sampled every 3rd" 4 (Trace.emitted trace);
  Alcotest.(check (list (pair int int))) "sink gets the sampled spans, numbered"
    [ (0, 0); (1, 3); (2, 6); (3, 9) ]
    (List.map (fun s -> (s.Span.id, s.Span.key)) (Sink.spans sink));
  Alcotest.check_raises "sample_every < 1" (Invalid_argument "Trace.create: sample_every < 1")
    (fun () -> ignore (Trace.create ~sample_every:0 ()))

(* --- Stuck carries the partial path ------------------------------- *)

let test_stuck_partial_path () =
  (* A 3-node chain with an artificially tiny hop budget (n = 0 gives
     budget 1): routing 0 -> 1 -> 2 exceeds it at the second hop. *)
  let ids = [| 10; 20; 30 |] in
  let links = [| [| 1 |]; [| 2 |]; [||] |] in
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  let attempt () =
    with_ambient trace (fun () ->
        ignore
          (Router.greedy_clockwise_generic ~level:(fun _ _ -> 0) ~n:0 ~ids
             ~links:(fun v -> links.(v))
             ~src:0 ~key:30))
  in
  (try
     attempt ();
     Alcotest.fail "expected Router.Stuck"
   with Router.Stuck { at; hops; path; _ } ->
     Alcotest.(check int) "stuck at" 1 at;
     Alcotest.(check int) "stuck hops" 1 hops;
     Alcotest.(check (array int)) "partial path" [| 0; 1 |] path);
  (* The trace saw the stuck lookup as a span too. *)
  match Sink.spans sink with
  | [ span ] ->
      Alcotest.(check bool) "outcome stuck" true (span.Span.outcome = Span.Stuck);
      Alcotest.(check (array int)) "span partial path" [| 0; 1 |] (Span.path span)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* --- Prefix CAN routes are traced like every route ------------------ *)

(* A prefix CAN route is a step over the one hop loop: it offers one
   span, whose key is the CAN key left-aligned in the 32-bit identifier
   space and whose every link is at level 0. *)
let test_prefix_can_span () =
  let pc = Prefix_can.build (Rng.create 5) ~n:100 in
  let depth = Prefix_can.depth pc in
  let key = (1 lsl depth) - 3 in
  let sink = Sink.memory () in
  let route = with_ambient (Trace.create ~sink ()) (fun () -> Prefix_can.route pc ~src:0 ~key) in
  let hops = Route.hops route in
  Alcotest.(check bool) "the route hops" true (hops > 0);
  match Sink.spans sink with
  | [ span ] ->
      Alcotest.(check string) "kind" "prefix_can.route" span.Span.kind;
      Alcotest.(check (array int)) "path" route.Route.nodes (Span.path span);
      Alcotest.(check int) "left-aligned key" (key lsl (32 - depth)) span.Span.key;
      Alcotest.(check bool) "key below 2^32" true (span.Span.key < 1 lsl 32);
      Alcotest.(check (array int)) "levels" (Array.init (hops + 1) (fun i -> if i = 0 then -1 else 0))
        (Array.map (fun e -> e.Span.level) span.Span.events)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* --- Engines trace through the ambient trace alone ---------------- *)

(* A trace that is created but not installed sees no lookup; once it is
   the ambient trace, each engine run, a store lookup through its
   clockwise route, and each Chord (Prox.), SkipNet and prefix CAN route
   offers it exactly one span of its kind. *)
let test_engines_read_ambient () =
  let pop, overlay = crescendo_overlay ~levels:3 ~n:256 in
  let store = Canon_storage.Store.create (Rings.build pop) in
  let key = Overlay.id overlay 200 in
  let chord_prox =
    Proximity.build_chord pop ~node_latency:(fun u v -> Float.of_int (abs (u - v)))
  and skipnet = Skipnet.build pop
  and prefix_can = Prefix_can.build (Rng.create 4) ~n:256 in
  let runs =
    [
      ("greedy_clockwise", fun () -> ignore (Router.greedy_clockwise overlay ~src:3 ~key));
      ( "greedy_clockwise_generic",
        fun () ->
          ignore
            (Router.greedy_clockwise_generic ~level:(Population.link_level pop) ~n:256
               ~ids:pop.Population.ids ~links:(Overlay.links overlay) ~src:3 ~key) );
      ( "greedy_clockwise_lookahead",
        fun () -> ignore (Router.greedy_clockwise_lookahead overlay ~src:3 ~key) );
      ("greedy_xor", fun () -> ignore (Router.greedy_xor overlay ~src:3 ~key));
      ( "greedy_clockwise_avoiding",
        fun () ->
          ignore (Router.greedy_clockwise_avoiding overlay ~dead:(fun _ -> false) ~src:3 ~key) );
      ( "greedy_clockwise",
        fun () -> ignore (Canon_storage.Store.lookup store overlay ~querier:3 ~key) );
      ("proximity.chord_groups", fun () -> ignore (Proximity.route chord_prox ~src:3 ~dst:200));
      ("skipnet.route_by_name", fun () -> ignore (Skipnet.route_by_name skipnet ~src:3 ~dst:200));
      ( "skipnet.route_by_numeric",
        fun () -> ignore (Skipnet.route_by_numeric skipnet ~src:3 ~key) );
      ("prefix_can.route", fun () -> ignore (Prefix_can.route prefix_can ~src:3 ~key:7));
    ]
  in
  let sink = Sink.memory () in
  let trace = Trace.create ~sink () in
  Alcotest.(check bool) "no ambient trace" true (Option.is_none (Trace.ambient ()));
  List.iter (fun (_, run) -> run ()) runs;
  Alcotest.(check int) "nothing recorded while not installed" 0 (Trace.seen trace);
  with_ambient trace (fun () ->
      List.iteri
        (fun i (kind, run) ->
          run ();
          Alcotest.(check int) (kind ^ ": one span a run") (i + 1) (Trace.emitted trace);
          Alcotest.(check string) "span kind" kind (List.nth (Sink.spans sink) i).Span.kind)
        runs);
  Alcotest.(check bool) "ambient left unset" true (Option.is_none (Trace.ambient ()))

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

let test_report_table_json () =
  let t = Canon_stats.Table.create ~title:"demo" ~columns:[ "n"; "x" ] in
  Canon_stats.Table.add_row t [ "1"; "a\"b" ];
  Canon_stats.Table.add_float_row t "2" [ 0.5 ];
  Alcotest.(check string) "cells as rendered strings"
    {|{"title":"demo","columns":["n","x"],"rows":[["1","a\"b"],["2","0.500"]]}|}
    (Json.to_string (Report.table_json t))

(* --- Json parser ------------------------------------------------------ *)

let test_json_parser_accepts () =
  let parses text expected =
    match Json.of_string text with
    | Ok v -> Alcotest.(check bool) text true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  parses " null " Json.Null;
  parses "[true,false]" (Json.List [ Json.Bool true; Json.Bool false ]);
  parses "-12" (Json.Int (-12));
  parses "1.5e3" (Json.Float 1500.0);
  parses "2E-1" (Json.Float 0.2);
  parses {|"a\"b\\c\/d\n\t\u0041\u00e9"|} (Json.String "a\"b\\c/d\n\tA\xc3\xa9");
  parses "{ }" (Json.Obj []);
  parses "[ ]" (Json.List []);
  parses {| {"a": [1, {"b": null}], "c": "x"} |}
    (Json.Obj
       [ ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]); ("c", Json.String "x") ]);
  let v =
    Json.Obj
      [
        ("s", Json.String "quote \" and \\ and \001");
        ("f", Json.Float 0.1);
        ("l", Json.List [ Json.Int 3; Json.Bool false; Json.Null ]);
      ]
  in
  parses (Json.to_string v) v;
  Alcotest.(check string) "non-finite floats print as null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]))

let test_json_parser_rejects () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "   "; "[1,]"; "[1 2]"; "{\"a\" 1}"; "{\"a\":1,}"; "{1:2}"; "\"open"; "\"\\q\"";
      "\"\\u00\""; "tru"; "nul"; "1 2"; "[1]]"; "-"; "1.2.3"; "@" ]

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
        Alcotest.test_case "sampling and retention" `Quick test_sampling;
        Alcotest.test_case "stuck carries partial path" `Quick test_stuck_partial_path;
        Alcotest.test_case "engines read the ambient trace" `Quick test_engines_read_ambient;
        Alcotest.test_case "prefix CAN span" `Quick test_prefix_can_span;
        Alcotest.test_case "report rendering" `Quick test_report_renders;
        Alcotest.test_case "span make" `Quick test_span_make;
        Alcotest.test_case "sinks" `Quick test_sinks;
        Alcotest.test_case "trace set_latency and ambient" `Quick
          test_trace_set_latency_and_ambient;
        Alcotest.test_case "report table json" `Quick test_report_table_json;
        Alcotest.test_case "json parser accepts" `Quick test_json_parser_accepts;
        Alcotest.test_case "json parser rejects" `Quick test_json_parser_rejects;
      ] );
  ]
