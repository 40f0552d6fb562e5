(* Tests for the statistics, histogram, table and Zipf helpers. *)

open Canon_stats

let feq = Alcotest.float 1e-9

let test_percentile () =
  let xs = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check feq "p99" 99.0 (Stats.percentile xs 99.0);
  Alcotest.check feq "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check feq "p100" 100.0 (Stats.percentile xs 100.0);
  (* input must not be mutated *)
  let ys = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile ys 50.0);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] ys

let test_histogram_basic () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Alcotest.(check int) "empty max" 0 (Histogram.max_value h);
  List.iter (Histogram.add h) [ 3; 3; 3; 7 ];
  Alcotest.(check int) "total" 4 (Histogram.total h);
  Alcotest.(check int) "count 3" 3 (Histogram.count h 3);
  Alcotest.(check int) "count 7" 1 (Histogram.count h 7);
  Alcotest.(check int) "count absent" 0 (Histogram.count h 5);
  Alcotest.(check int) "count out of range" 0 (Histogram.count h 1000);
  Alcotest.(check int) "max value" 7 (Histogram.max_value h)

let test_histogram_growth () =
  let h = Histogram.create () in
  Histogram.add h 500;
  Alcotest.(check int) "grown" 1 (Histogram.count h 500);
  Alcotest.(check int) "max" 500 (Histogram.max_value h)

let test_histogram_negative () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.add: negative value")
    (fun () -> Histogram.add h (-1))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "n"; "x" ] in
  Table.add_row t [ "1024"; "10.0" ];
  Table.add_float_row t "2048" [ 11.5 ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> l = "== demo ==") lines);
  Alcotest.(check bool) "has row" true
    (String.split_on_char '\n' out |> List.exists (fun l ->
         (* label left-aligned, value right-aligned *)
         String.trim l = "2048  11.500"))

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: cell count does not match columns")
    (fun () -> Table.add_row t [ "only one" ])

(* What the JSON export reads back: the title, the header and the rows
   in insertion order, each float cell rendered with 3 decimals. *)
let test_table_accessors () =
  let t = Table.create ~title:"fig" ~columns:[ "n"; "hops"; "lat" ] in
  Table.add_row t [ "1024"; "5.0"; "-" ];
  Table.add_float_row t "2048" [ 5.25; 1.0 /. 3.0 ];
  Alcotest.(check string) "title" "fig" (Table.title t);
  Alcotest.(check (list string)) "columns" [ "n"; "hops"; "lat" ] (Table.columns t);
  Alcotest.(check (list (list string))) "rows in insertion order"
    [ [ "1024"; "5.0"; "-" ]; [ "2048"; "5.250"; "0.333" ] ]
    (Table.rows t);
  Alcotest.check_raises "float row arity"
    (Invalid_argument "Table.add_row: cell count does not match columns") (fun () ->
      Table.add_float_row t "4096" [ 1.0 ])

(* With a large total the rounding is negligible, so the counts follow
   the Zipf weights 1/(k+1)^alpha: the first and fourth branches are
   4^alpha apart. *)
let test_zipf_split_follows_weights () =
  let counts = Zipf.split_counts ~total:1_000_000_000 ~branches:5 ~alpha:1.25 in
  for i = 0 to 3 do
    Alcotest.(check bool) "decreasing" true (counts.(i) > counts.(i + 1))
  done;
  Alcotest.check (Alcotest.float 1e-6) "ratio" (4.0 ** 1.25)
    (Float.of_int counts.(0) /. Float.of_int counts.(3))

let test_zipf_split_counts () =
  let counts = Zipf.split_counts ~total:1000 ~branches:10 ~alpha:1.25 in
  Alcotest.(check int) "sums to total" 1000 (Array.fold_left ( + ) 0 counts);
  for i = 0 to 8 do
    Alcotest.(check bool) "monotone" true (counts.(i) >= counts.(i + 1))
  done;
  let zero = Zipf.split_counts ~total:0 ~branches:3 ~alpha:1.0 in
  Alcotest.(check (array int)) "zero total" [| 0; 0; 0 |] zero

let test_zipf_sampler () =
  let s = Zipf.sampler ~n:100 ~alpha:1.0 in
  let rng = Canon_rng.Rng.create 12 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let r = Zipf.draw s rng in
    if r < 0 || r >= 100 then Alcotest.fail "rank out of range";
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "long tail present" true (Array.exists (fun c -> c > 0) (Array.sub counts 50 50))

let prop_split_counts_sum =
  QCheck.Test.make ~count:500 ~name:"zipf split_counts always sums to total"
    QCheck.(pair (int_range 0 10_000) (int_range 1 50))
    (fun (total, branches) ->
      let counts = Zipf.split_counts ~total ~branches ~alpha:1.25 in
      Array.fold_left ( + ) 0 counts = total && Array.for_all (fun c -> c >= 0) counts)

let prop_percentile_bounds =
  QCheck.Test.make ~count:500 ~name:"percentile lies within sample bounds"
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      lo <= v && v <= hi)

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
        Alcotest.test_case "histogram growth" `Quick test_histogram_growth;
        Alcotest.test_case "histogram negative" `Quick test_histogram_negative;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_arity;
        Alcotest.test_case "table accessors" `Quick test_table_accessors;
        Alcotest.test_case "zipf split follows the weights" `Quick test_zipf_split_follows_weights;
        Alcotest.test_case "zipf split counts" `Quick test_zipf_split_counts;
        Alcotest.test_case "zipf sampler" `Quick test_zipf_sampler;
        QCheck_alcotest.to_alcotest prop_split_counts_sum;
        QCheck_alcotest.to_alcotest prop_percentile_bounds;
      ] );
  ]
