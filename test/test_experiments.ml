(* Integration tests: run every experiment at quick scale and assert the
   qualitative shapes the paper reports. These are the same claims
   EXPERIMENTS.md records at paper scale, locked in as regressions. *)

open Canon_experiments
module Table = Canon_stats.Table

let seed = 42

let cell table r c = List.nth (List.nth (Table.rows table) r) c

let cellf table r c = float_of_string (cell table r c)

let nrows table = List.length (Table.rows table)

(* One topology-free and one topology-backed group, so the expensive
   Dijkstra setup runs only in a few tests. *)

let test_fig3_shape () =
  let t = Fig3.run ~scale:`Quick ~seed in
  Alcotest.(check bool) "has rows" true (nrows t >= 3);
  (* links close to log2 n and decreasing with levels *)
  List.iteri
    (fun r _ ->
      let log2n = cellf t r 1 in
      let chord = cellf t r 2 and five = cellf t r 6 in
      if Float.abs (chord -. log2n) > 1.0 then Alcotest.fail "Chord links far from log2 n";
      if five >= chord then Alcotest.fail "levels do not reduce links")
    (Table.rows t)

let test_fig4_shape () =
  let t = Fig4.run ~scale:`Quick ~seed in
  (* fractions in each column sum to ~1 *)
  let cols = List.length (Table.columns t) in
  for c = 1 to cols - 1 do
    let total =
      List.fold_left (fun acc row -> acc +. float_of_string (List.nth row c)) 0.0 (Table.rows t)
    in
    if total < 0.95 || total > 1.01 then Alcotest.failf "column %d mass %.3f" c total
  done

let test_fig5_shape () =
  let t = Fig5.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let half_log = float_of_string (List.nth row 1) in
      let chord = float_of_string (List.nth row 2) in
      let five = float_of_string (List.nth row 6) in
      if Float.abs (chord -. half_log) > 1.0 then Alcotest.fail "Chord hops far from 0.5 log2 n";
      (* paper: increase at most ~0.7 across levels *)
      if five -. chord > 1.0 then Alcotest.fail "hierarchy hops penalty too large")
    (Table.rows t)

let test_theorems_bounds_hold () =
  let t = Theorems.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let deg = float_of_string (List.nth row 3) in
      let deg_bound = float_of_string (List.nth row 4) in
      let hops = float_of_string (List.nth row 5) in
      let hops_bound = float_of_string (List.nth row 6) in
      if deg > deg_bound then Alcotest.fail "degree bound violated";
      if hops > hops_bound then Alcotest.fail "hops bound violated")
    (Table.rows t)

let test_variants_parity () =
  let t = Variants.run ~scale:`Quick ~seed in
  Alcotest.(check int) "12 systems" 12 (nrows t);
  (* each Canonical row is within 40% of its flat sibling's hops *)
  let hops r = cellf t r 2 in
  List.iter
    (fun (flat, canonical) ->
      let f = hops flat and c = hops canonical in
      if c > 1.4 *. f || f > 1.4 *. c then
        Alcotest.failf "rows %d/%d hops diverge: %.2f vs %.2f" flat canonical f c)
    [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9); (10, 11) ]

let test_lookahead_saves () =
  let t = Lookahead_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let saving = float_of_string (List.nth row 3) in
      if saving < 0.1 then Alcotest.fail "lookahead saves too little")
    (Table.rows t)

let test_balance_shape () =
  let t = Balance_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let random = float_of_string (List.nth row 1) in
      let bisect = float_of_string (List.nth row 2) in
      if bisect > 20.0 then Alcotest.fail "bisection ratio not constant-ish";
      if bisect > random /. 10.0 then Alcotest.fail "bisection not clearly better")
    (Table.rows t)

let test_maintenance_shape () =
  let t = Maintenance_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let log2n = float_of_string (List.nth row 1) in
      let join = float_of_string (List.nth row 2) in
      let failed = int_of_string (List.nth row 6) in
      Alcotest.(check int) "no failed probes" 0 failed;
      if join > 8.0 *. log2n then Alcotest.fail "join cost not O(log n)")
    (Table.rows t)

let test_isolation_shape () =
  let t = Isolation.run ~scale:`Quick ~seed in
  List.iteri
    (fun i row ->
      let chord = float_of_string (List.nth row 1) in
      let crescendo = float_of_string (List.nth row 2) in
      Alcotest.(check (float 1e-9)) "crescendo always delivers" 1.0 crescendo;
      if i >= 3 && chord >= 0.99 then Alcotest.fail "chord should degrade under heavy failure")
    (Table.rows t)

let test_hybrid_shape () =
  let t = Hybrid_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let c_hops = float_of_string (List.nth row 3) in
      let h_hops = float_of_string (List.nth row 4) in
      if h_hops > c_hops then Alcotest.fail "hybrid must not be slower";
      let c_deg = float_of_string (List.nth row 1) in
      let h_deg = float_of_string (List.nth row 2) in
      if h_deg <= c_deg then Alcotest.fail "hybrid clique must cost degree")
    (Table.rows t)

let test_prefix_can_parity () =
  let t = Prefix_can_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let pdeg = float_of_string (List.nth row 1) in
      let xdeg = float_of_string (List.nth row 2) in
      let phops = float_of_string (List.nth row 3) in
      let xhops = float_of_string (List.nth row 4) in
      if Float.abs (pdeg -. xdeg) > 1.5 then Alcotest.fail "degree parity broken";
      if Float.abs (phops -. xhops) > 1.0 then Alcotest.fail "hops parity broken")
    (Table.rows t)

(* topology-backed: one shared quick run each *)

let test_fig6_shape () =
  let t = Fig6.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let chord = float_of_string (List.nth row 2) in
      let crescendo = float_of_string (List.nth row 4) in
      let crescendo_prox = float_of_string (List.nth row 8) in
      if crescendo >= chord then Alcotest.fail "crescendo stretch must beat chord";
      if crescendo_prox > crescendo +. 0.1 then
        Alcotest.fail "prox must not make crescendo worse")
    (Table.rows t)

let test_fig7_shape () =
  let t = Fig7.run ~scale:`Quick ~seed in
  let rows = Table.rows t in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  let crescendo_top = float_of_string (List.nth first 2) in
  let crescendo_leaf = float_of_string (List.nth last 2) in
  let chord_top = float_of_string (List.nth first 1) in
  let chord_leaf = float_of_string (List.nth last 1) in
  Alcotest.(check bool) "crescendo collapses with locality" true
    (crescendo_leaf < crescendo_top /. 20.0);
  Alcotest.(check bool) "chord stays flat" true (chord_leaf > chord_top /. 2.0)

let test_fig8_shape () =
  let t = Fig8.run ~scale:`Quick ~seed in
  let rows = Table.rows t in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  let cres_first = float_of_string (List.nth first 1) in
  let cres_last = float_of_string (List.nth last 1) in
  Alcotest.(check bool) "overlap rises with domain level" true (cres_last > cres_first +. 0.3);
  (* latency overlap >= hop overlap on deep domains *)
  let lat_last = float_of_string (List.nth last 2) in
  Alcotest.(check bool) "latency overlap above hop overlap" true (lat_last >= cres_last)

let test_fig9_shape () =
  let t = Fig9.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let ratio = float_of_string (List.nth row 3) in
      if ratio > 0.5 then Alcotest.fail "crescendo multicast not clearly cheaper")
    (Table.rows t)

let test_caching_shape () =
  let t = Caching_bench.run ~scale:`Quick ~seed in
  List.iter
    (fun row ->
      let saving = float_of_string (List.nth row 4) in
      if saving < 0.2 then Alcotest.fail "caching saves too little")
    (Table.rows t)

module Trace = Canon_telemetry.Trace
module Sink = Canon_telemetry.Sink

(* Determinism regression: the same seed must reproduce the robustness
   sweep bit for bit — the rendered table AND the JSONL span trace
   streamed through the ambient sink. *)
let test_robustness_deterministic () =
  let run () =
    let sink = Sink.memory () in
    let trace = Trace.create ~sink () in
    Trace.set_ambient (Some trace);
    Fun.protect
      ~finally:(fun () -> Trace.set_ambient None)
      (fun () ->
        let t =
          Robustness_bench.run_with ~fail_fracs:[ 0.2 ] ~loss:0.05 ~n:128 ~probes:40
            ~scale:`Quick ~seed:7 ()
        in
        (Table.rows t, Sink.lines sink))
  in
  let rows1, lines1 = run () in
  let rows2, lines2 = run () in
  Alcotest.(check (list (list string))) "tables identical" rows1 rows2;
  Alcotest.(check bool) "spans were traced" true (lines1 <> []);
  Alcotest.(check (list string)) "JSONL traces byte-identical" lines1 lines2

let test_durability_shape () =
  let t =
    Durability.run_with ~fail_fracs:[ 0.2 ] ~ks:[ 2; 3 ] ~n:192 ~keys:200
      ~scale:`Quick ~seed ()
  in
  (* columns: fail frac | flat k=2 | flat k=3 | sibling k=2 | sibling k=3 *)
  Alcotest.(check int) "two rows" 2 (nrows t);
  (* Random-crash row: k = 3 never worse than k = 2 — k-holder sets are
     prefixes of each other, so this holds exactly, not just on average. *)
  Alcotest.(check bool) "flat k=3 >= k=2" true (cellf t 0 2 >= cellf t 0 1);
  Alcotest.(check bool) "sibling k=3 >= k=2" true (cellf t 0 4 >= cellf t 0 3);
  (* Outage row: the containment claim exactly as BENCH.json renders it —
     sibling spread rides out a whole-leaf-domain crash, flat does not. *)
  Alcotest.(check string) "sibling k=2 contains the outage" "1.000" (cell t 1 3);
  Alcotest.(check string) "sibling k=3 contains the outage" "1.000" (cell t 1 4);
  Alcotest.(check bool) "flat k=2 loses keys" true (cellf t 1 1 < 1.0);
  Alcotest.(check bool) "flat k=3 loses keys" true (cellf t 1 2 < 1.0)

let test_durability_validates () =
  let run ?n ?keys ?ks () =
    ignore (Durability.run_with ?n ?keys ?ks ~scale:`Quick ~seed:1 ())
  in
  Alcotest.check_raises "keys = 0" (Invalid_argument "Durability.run_with: keys < 1")
    (fun () -> run ~keys:0 ());
  Alcotest.check_raises "n = 0" (Invalid_argument "Durability.run_with: n < 1")
    (fun () -> run ~n:0 ());
  Alcotest.check_raises "k = 0" (Invalid_argument "Durability.run_with: k < 1")
    (fun () -> run ~ks:[ 0 ] ());
  let frac_error = Invalid_argument "Durability.run_with: fail_frac not in [0, 1]" in
  let run_frac f () = ignore (Durability.run_with ~fail_fracs:[ f ] ~scale:`Quick ~seed:1 ()) in
  Alcotest.check_raises "fail_frac = nan" frac_error (run_frac Float.nan);
  Alcotest.check_raises "fail_frac = 2" frac_error (run_frac 2.0)

(* Bad arguments are rejected on entry, before any set-up: the CLI turns
   these messages into usage errors. *)
let test_fig6_validates () =
  Alcotest.check_raises "n = 1" (Invalid_argument "Fig6.run_with: n < 2") (fun () ->
      ignore (Fig6.run_with ~sizes:[ 64; 1 ] ~scale:`Quick ~seed:1 ()))

let test_robustness_validates () =
  let run ?fail_fracs ?loss ?n ?probes () =
    ignore (Robustness_bench.run_with ?fail_fracs ?loss ?n ?probes ~scale:`Quick ~seed:1 ())
  in
  let prob_error what =
    Invalid_argument ("Robustness_bench.run_with: " ^ what ^ " not in [0, 1]")
  in
  Alcotest.check_raises "fail_frac = nan" (prob_error "fail_frac") (fun () ->
      run ~fail_fracs:[ 0.1; Float.nan ] ());
  Alcotest.check_raises "fail_frac < 0" (prob_error "fail_frac") (fun () ->
      run ~fail_fracs:[ -0.1 ] ());
  Alcotest.check_raises "loss = nan" (prob_error "loss") (fun () -> run ~loss:Float.nan ());
  Alcotest.check_raises "loss > 1" (prob_error "loss") (fun () -> run ~loss:1.5 ());
  Alcotest.check_raises "n = 0" (Invalid_argument "Robustness_bench.run_with: n < 1")
    (fun () -> run ~n:0 ());
  Alcotest.check_raises "probes = 0" (Invalid_argument "Robustness_bench.run_with: probes < 1")
    (fun () -> run ~probes:0 ())

let test_churn_async_shape () =
  let t = Churn_async.run_with ~n:256 ~events:60 ~lookups:80 ~scale:`Quick ~seed:11 () in
  Alcotest.(check int) "three phases" 3 (nrows t);
  Alcotest.(check int) "seven columns" 7 (List.length (Table.columns t));
  (* quiescent phase is fault-free over static membership: every lookup
     lands, for both constructions *)
  Alcotest.(check string) "quiescent Chord all ok" "1.000" (cell t 0 1);
  Alcotest.(check string) "quiescent Cresc all ok" "1.000" (cell t 0 2);
  (* churn can only hurt *)
  Alcotest.(check bool) "burst Chord <= quiescent" true (cellf t 1 1 <= cellf t 0 1);
  Alcotest.(check bool) "burst Cresc <= quiescent" true (cellf t 1 2 <= cellf t 0 2);
  (* containment: intra-domain Crescendo lookups never touch the
     churning remainder of the network *)
  Alcotest.(check string) "intra Cresc unaffected by outside churn" "1.000" (cell t 2 2)

let test_churn_async_validates () =
  let run ?churn_rate ?lookup_rate ?events ?n ?lookups () =
    ignore
      (Churn_async.run_with ?churn_rate ?lookup_rate ?events ?n ?lookups ~scale:`Quick
         ~seed:1 ())
  in
  Alcotest.check_raises "churn_rate = 0"
    (Invalid_argument "Churn_async.run_with: churn_rate <= 0") (fun () ->
      run ~churn_rate:0.0 ());
  Alcotest.check_raises "lookup_rate = 0"
    (Invalid_argument "Churn_async.run_with: lookup_rate <= 0") (fun () ->
      run ~lookup_rate:0.0 ());
  Alcotest.check_raises "events < 0" (Invalid_argument "Churn_async.run_with: events < 0")
    (fun () -> run ~events:(-1) ());
  Alcotest.check_raises "n too small" (Invalid_argument "Churn_async.run_with: n < 16")
    (fun () -> run ~n:8 ());
  Alcotest.check_raises "lookups = 0"
    (Invalid_argument "Churn_async.run_with: lookups < 1") (fun () -> run ~lookups:0 ());
  Alcotest.check_raises "churn_rate = nan"
    (Invalid_argument "Churn_async.run_with: churn_rate not finite") (fun () ->
      run ~churn_rate:Float.nan ());
  Alcotest.check_raises "churn_rate = inf"
    (Invalid_argument "Churn_async.run_with: churn_rate not finite") (fun () ->
      run ~churn_rate:Float.infinity ());
  Alcotest.check_raises "lookup_rate = inf"
    (Invalid_argument "Churn_async.run_with: lookup_rate not finite") (fun () ->
      run ~lookup_rate:Float.infinity ());
  (* finite, but 1000 / rate ms is not *)
  Alcotest.check_raises "lookup_rate subnormal"
    (Invalid_argument "Churn_async.run_with: lookup_rate not finite") (fun () ->
      run ~lookup_rate:Float.min_float ())

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig3 shape" `Slow test_fig3_shape;
        Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
        Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
        Alcotest.test_case "theorem bounds" `Slow test_theorems_bounds_hold;
        Alcotest.test_case "variant parity" `Slow test_variants_parity;
        Alcotest.test_case "lookahead saving" `Slow test_lookahead_saves;
        Alcotest.test_case "balance shape" `Slow test_balance_shape;
        Alcotest.test_case "maintenance shape" `Slow test_maintenance_shape;
        Alcotest.test_case "isolation shape" `Slow test_isolation_shape;
        Alcotest.test_case "hybrid shape" `Slow test_hybrid_shape;
        Alcotest.test_case "prefix-can parity" `Slow test_prefix_can_parity;
        Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
        Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
        Alcotest.test_case "fig8 shape" `Slow test_fig8_shape;
        Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
        Alcotest.test_case "caching shape" `Slow test_caching_shape;
        Alcotest.test_case "robustness determinism" `Slow test_robustness_deterministic;
        Alcotest.test_case "durability shape" `Slow test_durability_shape;
        Alcotest.test_case "durability validation" `Quick test_durability_validates;
        Alcotest.test_case "churn_async shape" `Slow test_churn_async_shape;
        Alcotest.test_case "churn_async validation" `Quick test_churn_async_validates;
        Alcotest.test_case "fig6 validation" `Quick test_fig6_validates;
        Alcotest.test_case "robustness validation" `Quick test_robustness_validates;
      ] );
  ]
