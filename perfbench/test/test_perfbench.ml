(* Tests of the benchmark itself: simulated outputs repeat exactly for a
   seed whatever ran before in the process, the correctness checks pass
   on the small scale, and span self times add up. *)

module W = Canon_perfbench.Workloads
module Spans = Canon_perfbench.Spans

let seed = 7

let run ?tracer w = w.W.setup ~scale:W.Small ~seed ~rounds:2 tracer ()

(* Everything the simulated model produced; host times excluded. *)
let sim_outputs (r : W.result) =
  (r.W.attempted, r.W.failed, r.W.sim_p50, r.W.sim_p95, r.W.sim_p99, r.W.counters, r.W.layer)

let test_determinism () =
  let forward = List.map (fun w -> (w.W.name, sim_outputs (run w))) W.all in
  let backward = List.rev_map (fun w -> (w.W.name, sim_outputs (run w))) (List.rev W.all) in
  List.iter2
    (fun (name, a) (name', b) ->
      Alcotest.(check string) "same workload" name name';
      Alcotest.(check bool) (name ^ " repeats exactly in another order") true (a = b))
    forward backward;
  List.iter
    (fun (name, (_, _, _, _, _, counters, _)) ->
      Alcotest.(check bool) (name ^ " moves some library counter or is static") true
        (counters <> [] || name = "static_lookup"))
    forward

let test_traced_matches_untraced () =
  List.iter
    (fun w ->
      let plain = run w in
      let traced = run ~tracer:(Spans.create ()) w in
      Alcotest.(check bool) (w.W.name ^ " tracing changes nothing simulated") true
        (sim_outputs plain = sim_outputs traced))
    W.all

let test_correct () =
  List.iter
    (fun w ->
      let r = run w in
      Alcotest.(check (list string)) (w.W.name ^ " has no violations") [] r.W.violations;
      Alcotest.(check int) (w.W.name ^ " op times cover every op") r.W.attempted
        (Array.fold_left ( + ) 0 r.W.round_ops))
    W.all

let test_span_nesting () =
  List.iter
    (fun w ->
      let spans = Spans.create () in
      ignore (run ~tracer:spans w);
      Alcotest.(check bool) (w.W.name ^ " recorded spans") true (Spans.length spans > 0);
      Alcotest.(check int) (w.W.name ^ " children fit in their op") 0 (Spans.check_nesting spans);
      List.iter
        (fun (name, s) ->
          Alcotest.(check bool) (name ^ " self <= total") true
            (s.Spans.self_ns <= s.Spans.total_ns && s.Spans.self_ns >= 0))
        (Spans.summarize spans))
    W.all

let test_self_time_arithmetic () =
  let t = Spans.create () in
  let a = Spans.name_id t "a" and b = Spans.name_id t "b" in
  let outer = Spans.enter t a in
  let inner = Spans.enter t b in
  Spans.leave t inner;
  let inner2 = Spans.enter t b in
  Spans.leave t inner2;
  Spans.leave t outer;
  let self = Spans.self_times t in
  let dur i = t.Spans.stop.(i) - t.Spans.start.(i) in
  Alcotest.(check int) "outer self = duration - children" (dur outer - dur inner - dur inner2)
    self.(outer);
  Alcotest.(check int) "leaf self = duration" (dur inner) self.(inner);
  Alcotest.(check int) "well nested" 0 (Spans.check_nesting t);
  (* A child that outlasts its parent is reported. *)
  t.Spans.stop.(inner2) <- t.Spans.stop.(outer) + 1;
  Alcotest.(check int) "overrun detected" 1 (Spans.check_nesting t)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "simulated outputs repeat across orders" `Quick test_determinism;
          Alcotest.test_case "tracing leaves simulated outputs unchanged" `Quick
            test_traced_matches_untraced;
          Alcotest.test_case "correctness checks pass" `Quick test_correct;
          Alcotest.test_case "child spans nest within ops" `Quick test_span_nesting;
          Alcotest.test_case "self time arithmetic" `Quick test_self_time_arithmetic;
        ] );
    ]
