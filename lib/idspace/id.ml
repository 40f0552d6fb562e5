type t = int

let bits = 32

let space = 1 lsl bits

let mask = space - 1

let zero = 0

let of_int v =
  if v < 0 then invalid_arg "Id.of_int: negative";
  v land mask

let equal = Int.equal

let random rng = Canon_rng.Rng.int_below rng space

let add id d = (id + d) land mask

let distance a b = (b - a) land mask

let xor_distance a b = a lxor b

let in_clockwise_interval x ~lo ~hi =
  if lo = hi then true
  else distance lo x <> 0 && distance lo x <= distance lo hi

let log2_floor d =
  if d <= 0 then invalid_arg "Id.log2_floor: non-positive";
  (* Position of the highest set bit. *)
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 d

let common_prefix_bits a b =
  let x = a lxor b in
  if x = 0 then bits else bits - 1 - log2_floor x

let prefix id k =
  if k < 0 || k > bits then invalid_arg "Id.prefix";
  if k = 0 then 0 else id lsr (bits - k)
