(* Tests for the deterministic randomness substrate. *)

open Canon_rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a = Rng.float b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_split_independence () =
  let a = Rng.create 11 in
  let sub = Rng.split a in
  (* The parent stream after a split must not equal the child stream. *)
  let collisions = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a = Rng.float sub then incr collisions
  done;
  Alcotest.(check int) "no stream collision" 0 !collisions

let test_int_below_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let n = 1 + Rng.int_below rng 1000 in
    let v = Rng.int_below rng n in
    if v < 0 || v >= n then Alcotest.fail "int_below out of bounds"
  done

let test_int_below_uniform () =
  let rng = Rng.create 5 in
  let n = 10 in
  let counts = Array.make n 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Rng.int_below rng n in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = draws / n in
  Array.iteri
    (fun i c ->
      if abs (c - expect) > expect / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expect)
    counts

let test_int_below_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int_below: bound must be positive")
    (fun () -> ignore (Rng.int_below rng 0))

let test_float_range () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let rng = Rng.create 17 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_shuffle_is_permutation () =
  let rng = Rng.create 19 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_moves_elements () =
  let rng = Rng.create 23 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let fixed = ref 0 in
  Array.iteri (fun i v -> if i = v then incr fixed) a;
  (* Expected number of fixed points of a random permutation is 1. *)
  Alcotest.(check bool) "not identity" true (!fixed < 20)

let test_exponential_positive_and_mean () =
  let rng = Rng.create 37 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:2.0 in
    if v < 0.0 then Alcotest.fail "exponential must be non-negative";
    sum := !sum +. v
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "mean near 2.0" true (Float.abs (mean -. 2.0) < 0.1)

let test_pick () =
  let rng = Rng.create 41 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    Alcotest.(check bool) "pick member" true (Array.exists (Int.equal v) a)
  done

let test_bool_balance () =
  let rng = Rng.create 43 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "fair coin" true (abs (!trues - 5000) < 300)

(* The first outputs of the reference SplitMix64 (Steele, Lea and Flood;
   Vigna's splitmix64.c) from seed 0: every experiment's randomness
   starts here, so a drift in the mix would shift every table. *)
let test_splitmix64_reference () =
  let g = Splitmix64.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "reference output" expected (Splitmix64.next g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ]

let test_splitmix64_split () =
  let draws g = List.init 64 (fun _ -> Splitmix64.next g) in
  let parent_a = Splitmix64.create 99L and parent_b = Splitmix64.create 99L in
  let child_a = Splitmix64.split parent_a and child_b = Splitmix64.split parent_b in
  Alcotest.(check (list int64)) "split is deterministic" (draws child_a) (draws child_b);
  let fresh = draws (Splitmix64.create 99L) in
  let parent = draws parent_a and child = draws (Splitmix64.split (Splitmix64.create 99L)) in
  Alcotest.(check bool) "split advances the parent" true (parent <> fresh);
  let shared = List.filter (fun x -> List.mem x parent) child in
  Alcotest.(check int) "child stream shares no draw with the parent's" 0 (List.length shared)

let suites =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
        Alcotest.test_case "int_below uniform" `Quick test_int_below_uniform;
        Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "float mean" `Quick test_float_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
        Alcotest.test_case "shuffle moves elements" `Quick test_shuffle_moves_elements;
        Alcotest.test_case "exponential" `Quick test_exponential_positive_and_mean;
        Alcotest.test_case "pick" `Quick test_pick;
        Alcotest.test_case "bool balance" `Quick test_bool_balance;
        Alcotest.test_case "splitmix64 reference stream" `Quick test_splitmix64_reference;
        Alcotest.test_case "splitmix64 split" `Quick test_splitmix64_split;
      ] );
  ]
