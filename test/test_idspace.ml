(* Tests for the circular identifier space: exact wrap-around arithmetic
   is the foundation every DHT construction rests on. *)

open Canon_idspace

let id_gen = QCheck.map (fun v -> Id.of_int (abs v land (Id.space - 1))) QCheck.int

let test_constants () =
  Alcotest.(check int) "bits" 32 Id.bits;
  Alcotest.(check int) "space" (1 lsl 32) Id.space;
  Alcotest.(check int) "zero" 0 Id.zero

let test_of_int_wraps () =
  Alcotest.(check int) "wraps modulo space" 5 (Id.of_int (Id.space + 5));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Id.of_int: negative")
    (fun () -> ignore (Id.of_int (-1)))

let test_add_wraps () =
  let near_top = Id.of_int (Id.space - 1) in
  Alcotest.(check int) "wrap forward" 0 (Id.add near_top 1);
  Alcotest.(check int) "wrap backward" (Id.space - 1) (Id.add Id.zero (-1))

let test_distance_examples () =
  Alcotest.(check int) "simple" 5 (Id.distance (Id.of_int 10) (Id.of_int 15));
  Alcotest.(check int) "wrap" (Id.space - 5) (Id.distance (Id.of_int 15) (Id.of_int 10));
  Alcotest.(check int) "self" 0 (Id.distance (Id.of_int 7) (Id.of_int 7))

let test_interval_examples () =
  let i = Id.of_int in
  Alcotest.(check bool) "inside" true (Id.in_clockwise_interval (i 5) ~lo:(i 0) ~hi:(i 10));
  Alcotest.(check bool) "hi inclusive" true (Id.in_clockwise_interval (i 10) ~lo:(i 0) ~hi:(i 10));
  Alcotest.(check bool) "lo exclusive" false (Id.in_clockwise_interval (i 0) ~lo:(i 0) ~hi:(i 10));
  Alcotest.(check bool) "outside" false (Id.in_clockwise_interval (i 11) ~lo:(i 0) ~hi:(i 10));
  Alcotest.(check bool) "wrapping interval" true
    (Id.in_clockwise_interval (i 2) ~lo:(i (Id.space - 5)) ~hi:(i 10));
  Alcotest.(check bool) "full ring" true (Id.in_clockwise_interval (i 123) ~lo:(i 7) ~hi:(i 7))

let test_log2_floor () =
  Alcotest.(check int) "1" 0 (Id.log2_floor 1);
  Alcotest.(check int) "2" 1 (Id.log2_floor 2);
  Alcotest.(check int) "3" 1 (Id.log2_floor 3);
  Alcotest.(check int) "4" 2 (Id.log2_floor 4);
  Alcotest.(check int) "2^31" 31 (Id.log2_floor (1 lsl 31));
  Alcotest.check_raises "zero" (Invalid_argument "Id.log2_floor: non-positive")
    (fun () -> ignore (Id.log2_floor 0))

let test_prefix () =
  let id = Id.of_int 0xDEADBEEF in
  Alcotest.(check int) "0 bits" 0 (Id.prefix id 0);
  Alcotest.(check int) "8 bits" 0xDE (Id.prefix id 8);
  Alcotest.(check int) "all bits" 0xDEADBEEF (Id.prefix id 32)

let test_common_prefix_bits () =
  Alcotest.(check int) "equal" 32 (Id.common_prefix_bits (Id.of_int 5) (Id.of_int 5));
  Alcotest.(check int) "top bit differs" 0
    (Id.common_prefix_bits (Id.of_int 0) (Id.of_int (1 lsl 31)));
  Alcotest.(check int) "bottom bit differs" 31
    (Id.common_prefix_bits (Id.of_int 0) (Id.of_int 1))

(* Property: distance a b + distance b a = space, unless a = b. *)
let prop_distance_antisymmetric =
  QCheck.Test.make ~count:2000 ~name:"dist a b + dist b a = space (a <> b)"
    (QCheck.pair id_gen id_gen) (fun (a, b) ->
      if Id.equal a b then Id.distance a b = 0
      else Id.distance a b + Id.distance b a = Id.space)

(* Property: add a (distance a b) = b. *)
let prop_add_distance =
  QCheck.Test.make ~count:2000 ~name:"add a (dist a b) = b" (QCheck.pair id_gen id_gen)
    (fun (a, b) -> Id.equal (Id.add a (Id.distance a b)) b)

(* Property: clockwise triangle equality when c is "between" a and b. *)
let prop_distance_split =
  QCheck.Test.make ~count:2000 ~name:"dist a c + dist c b = dist a b when c in (a,b]"
    (QCheck.triple id_gen id_gen id_gen) (fun (a, b, c) ->
      QCheck.assume (Id.in_clockwise_interval c ~lo:a ~hi:b);
      QCheck.assume (not (Id.equal a b));
      Id.distance a c + Id.distance c b = Id.distance a b)

(* Property: xor distance is symmetric and a metric identity. *)
let prop_xor_metric =
  QCheck.Test.make ~count:2000 ~name:"xor metric identity+symmetry"
    (QCheck.pair id_gen id_gen) (fun (a, b) ->
      Id.xor_distance a b = Id.xor_distance b a
      && (Id.xor_distance a b = 0) = Id.equal a b)

(* Property: xor satisfies the triangle inequality (in fact the stronger
   relaxation d(a,c) <= d(a,b) lxor d(b,c) <= d(a,b)+d(b,c)). *)
let prop_xor_triangle =
  QCheck.Test.make ~count:2000 ~name:"xor triangle inequality"
    (QCheck.triple id_gen id_gen id_gen) (fun (a, b, c) ->
      Id.xor_distance a c <= Id.xor_distance a b + Id.xor_distance b c)

(* Property: log2_floor is the exponent of the highest bit. *)
let prop_log2 =
  QCheck.Test.make ~count:2000 ~name:"2^log2_floor d <= d < 2^(log2_floor d + 1)"
    QCheck.(map (fun v -> 1 + (abs v land (Id.space - 1))) int)
    (fun d ->
      let k = Id.log2_floor d in
      1 lsl k <= d && d < 1 lsl (k + 1))

(* Property: common_prefix_bits agrees with prefix equality. *)
let prop_common_prefix =
  QCheck.Test.make ~count:2000 ~name:"common_prefix_bits consistent with prefix"
    (QCheck.pair id_gen id_gen) (fun (a, b) ->
      let k = Id.common_prefix_bits a b in
      Id.prefix a k = Id.prefix b k
      && (k = Id.bits || Id.prefix a (k + 1) <> Id.prefix b (k + 1)))

let test_random_in_space () =
  let rng = Canon_rng.Rng.create 99 in
  for _ = 1 to 10_000 do
    let id = Id.random rng in
    if id < 0 || id >= Id.space then Alcotest.fail "random out of space"
  done

let suites =
  [
    ( "idspace",
      [
        Alcotest.test_case "constants" `Quick test_constants;
        Alcotest.test_case "of_int wraps" `Quick test_of_int_wraps;
        Alcotest.test_case "add wraps" `Quick test_add_wraps;
        Alcotest.test_case "distance examples" `Quick test_distance_examples;
        Alcotest.test_case "interval examples" `Quick test_interval_examples;
        Alcotest.test_case "log2_floor" `Quick test_log2_floor;
        Alcotest.test_case "prefix" `Quick test_prefix;
        Alcotest.test_case "common prefix bits" `Quick test_common_prefix_bits;
        Alcotest.test_case "random in space" `Quick test_random_in_space;
        QCheck_alcotest.to_alcotest prop_distance_antisymmetric;
        QCheck_alcotest.to_alcotest prop_add_distance;
        QCheck_alcotest.to_alcotest prop_distance_split;
        QCheck_alcotest.to_alcotest prop_xor_metric;
        QCheck_alcotest.to_alcotest prop_xor_triangle;
        QCheck_alcotest.to_alcotest prop_log2;
        QCheck_alcotest.to_alcotest prop_common_prefix;
      ] );
  ]



