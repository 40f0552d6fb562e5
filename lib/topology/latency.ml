module Metrics = Canon_telemetry.Metrics

(* Process-wide telemetry, bound once (see Metrics); the counters
   aggregate over every oracle in the process. *)
let m_rows = Metrics.counter "latency.rows_computed"
let m_hits = Metrics.counter "latency.hits"
let m_misses = Metrics.counter "latency.misses"

type t = {
  topology : Transit_stub.t;
  access : float;
  core : float array array; (* transit node x transit node, over transit links *)
  domain : int array; (* router -> its stub domain; -1 for a transit node *)
  up : int array; (* router -> its transit node (itself for a transit node) *)
  up_ms : float array; (* router -> distance to [up], through its gateway *)
  first : int array; (* stub domain -> its first router (a domain's routers are contiguous) *)
  intra : float array array array; (* per stub domain, [||] until first queried *)
  mutable built : int; (* intra tables built = queries that built one *)
  mutable hit : int;
}

type stats = { rows_computed : int; hits : int; misses : int }

let create ts =
  let g = Transit_stub.graph ts and transit = Transit_stub.transit_count ts in
  let n = Graph.num_vertices g in
  let core = Array.init transit (Graph.dijkstra_within g ~first:0 ~count:transit) in
  let domain = Array.init n (fun v -> if v < transit then -1 else Transit_stub.stub_domain ts v) in
  let up = Array.init n Fun.id in
  let up_ms = Array.make n 0.0 in
  let gateway_ms = (Transit_stub.params ts).Transit_stub.transit_stub_ms in
  let domains = Transit_stub.stub_domain_count ts in
  for d = 0 to domains - 1 do
    let first, count = Transit_stub.stub_domain_routers ts d in
    let to_gateway = Graph.dijkstra_within g ~first ~count (Transit_stub.gateway ts d) in
    for i = 0 to count - 1 do
      up.(first + i) <- Transit_stub.domain_transit_node ts d;
      up_ms.(first + i) <- to_gateway.(i) +. gateway_ms
    done
  done;
  {
    topology = ts;
    access = (Transit_stub.params ts).Transit_stub.access_ms;
    core;
    domain;
    up;
    up_ms;
    first = Array.init domains (fun d -> fst (Transit_stub.stub_domain_routers ts d));
    intra = Array.make domains [||];
    built = 0;
    hit = 0;
  }

(* Both routers in stub domain [d]: the path never leaves the domain, so
   the answer comes from the domain's own all-pairs table, built on the
   first such query by one bounded Dijkstra per member. *)
let intra t d a b =
  let first = t.first.(d) in
  if Array.length t.intra.(d) = 0 then begin
    let g = Transit_stub.graph t.topology in
    let _, count = Transit_stub.stub_domain_routers t.topology d in
    t.intra.(d) <- Array.init count (fun i -> Graph.dijkstra_within g ~first ~count (first + i));
    t.built <- t.built + 1;
    Metrics.incr m_rows;
    Metrics.incr m_misses
  end
  else begin
    t.hit <- t.hit + 1;
    Metrics.incr m_hits
  end;
  t.intra.(d).(a - first).(b - first)

let router_latency t a b =
  let d = t.domain.(a) in
  if d >= 0 && d = t.domain.(b) then intra t d a b
  else begin
    t.hit <- t.hit + 1;
    Metrics.incr m_hits;
    t.up_ms.(a) +. t.core.(t.up.(a)).(t.up.(b)) +. t.up_ms.(b)
  end

let node_latency t a b = t.access +. router_latency t a b +. t.access

let stats t = { rows_computed = t.built; hits = t.hit; misses = t.built }

let mean_node_latency t rng ~samples =
  if samples <= 0 then invalid_arg "Latency.mean_node_latency: samples must be positive";
  let stubs = Transit_stub.stub_routers t.topology in
  (* The mean-direct normalizer is over *distinct* node pairs: drawing
     the same stub for both endpoints would charge 2 x access_ms for a
     zero-distance pair and bias the stretch denominator down. A
     single-stub topology has no distinct pair, so it keeps a = b. *)
  let distinct = Array.length stubs > 1 in
  let total = ref 0.0 in
  for _ = 1 to samples do
    let a = Canon_rng.Rng.pick rng stubs in
    let b = ref (Canon_rng.Rng.pick rng stubs) in
    while distinct && !b = a do
      b := Canon_rng.Rng.pick rng stubs
    done;
    total := !total +. node_latency t a !b
  done;
  !total /. Float.of_int samples
