type t = Splitmix64.t

let create seed = Splitmix64.create (Int64.of_int seed)

let split = Splitmix64.split

let bits64 = Splitmix64.next

(* Top 62 bits as a non-negative OCaml int. *)
let nonneg_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  (* Rejection sampling over the largest multiple of [n] that fits in
     [0, max_int], ensuring exact uniformity. (2^62 itself overflows a
     63-bit OCaml int, so the limit is anchored at max_int.) *)
  let limit = max_int - (max_int mod n) in
  let rec draw () =
    let v = nonneg_int t in
    if v < limit then v mod n else draw ()
  in
  draw ()

let float t =
  (* 53 random bits scaled to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  Float.of_int v *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int_below t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t in
  -.mean *. log1p (-.u)
