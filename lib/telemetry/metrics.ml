type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  buckets : int array;  (* length bounds + 1; last = overflow *)
  mutable n : int;
  mutable s : float;
  mutable lo : float;
  mutable hi : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make select =
  match Hashtbl.find_opt registry name with
  | Some existing -> (
      match select existing with
      | Some m -> m
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already a %s" name (kind_name existing)))
  | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      (match select m with Some x -> x | None -> assert false)

let counter name =
  register name
    (fun () -> Counter { c = 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.c <- c.c + n

let value c = c.c

let gauge name =
  register name
    (fun () -> Gauge { g = 0.0 })
    (function Gauge g -> Some g | _ -> None)

let set g x = g.g <- x


let default_buckets =
  [| 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0; 2500.0; 5000.0; 10000.0 |]

let check_buckets bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: buckets must be strictly increasing"
  done

let histogram ?(buckets = default_buckets) name =
  check_buckets buckets;
  register name
    (fun () ->
      Histogram
        {
          bounds = Array.copy buckets;
          buckets = Array.make (Array.length buckets + 1) 0;
          n = 0;
          s = 0.0;
          lo = 0.0;
          hi = 0.0;
        })
    (function Histogram h -> Some h | _ -> None)

(* Index of the first bucket whose upper bound is >= v; the overflow
   bucket when v exceeds every bound. *)
let bucket_index h v =
  let nb = Array.length h.bounds in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if h.bounds.(mid) >= v then search lo mid else search (mid + 1) hi
    end
  in
  search 0 nb

let observe h v =
  let i = bucket_index h v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  if h.n = 0 then begin
    h.lo <- v;
    h.hi <- v
  end
  else begin
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end;
  h.n <- h.n + 1;
  h.s <- h.s +. v



let percentile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q outside [0,1]";
  if h.n = 0 then 0.0
  else if q = 0.0 then h.lo
  else if q = 1.0 then h.hi
  else begin
    (* Rank of the q-th observation (1-based, nearest-rank). *)
    let rank = max 1 (int_of_float (ceil (q *. Float.of_int h.n))) in
    let nb = Array.length h.bounds in
    let rec find i cum =
      if i > nb then (h.hi, h.hi, cum - h.buckets.(nb), cum)
      else begin
        let cum' = cum + h.buckets.(i) in
        if cum' >= rank then begin
          (* Interpolation range of this bucket, clamped to observed
             extremes at the two open ends. *)
          let lo = if i = 0 then h.lo else h.bounds.(i - 1) in
          let hi = if i = nb then h.hi else h.bounds.(i) in
          (lo, hi, cum, cum')
        end
        else find (i + 1) cum'
      end
    in
    let lo, hi, below, through = find 0 0 in
    let in_bucket = through - below in
    let frac =
      if in_bucket = 0 then 1.0
      else Float.of_int (rank - below) /. Float.of_int in_bucket
    in
    let est = lo +. (frac *. (hi -. lo)) in
    Float.min h.hi (Float.max h.lo est)
  end

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  bucket_bounds : float array;
  bucket_counts : int array;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> counters := (name, c.c) :: !counters
      | Gauge g -> gauges := (name, g.g) :: !gauges
      | Histogram h ->
          histograms :=
            ( name,
              {
                h_count = h.n;
                h_sum = h.s;
                h_min = (if h.n = 0 then 0.0 else h.lo);
                h_max = (if h.n = 0 then 0.0 else h.hi);
                p50 = percentile h 0.50;
                p95 = percentile h 0.95;
                p99 = percentile h 0.99;
                bucket_bounds = Array.copy h.bounds;
                bucket_counts = Array.copy h.buckets;
              } )
            :: !histograms)
    registry;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0.0
      | Histogram h ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.n <- 0;
          h.s <- 0.0;
          h.lo <- 0.0;
          h.hi <- 0.0)
    registry
