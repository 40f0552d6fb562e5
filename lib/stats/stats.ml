let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  (* Nearest rank: the ceil(p/100 * n)-th smallest, clamped to the sample. *)
  let rank = int_of_float (ceil (p /. 100.0 *. Float.of_int n)) in
  sorted.(if rank <= 0 then 0 else min (n - 1) (rank - 1))
