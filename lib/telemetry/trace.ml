type t = {
  sample_every : int;
  mutable latency : (int -> int -> float) option;
  sink : Sink.t;
  mutable seen : int;
  mutable emitted : int;
}

let create ?(sample_every = 1) ?(sink = Sink.null) () =
  if sample_every < 1 then invalid_arg "Trace.create: sample_every < 1";
  { sample_every; latency = None; sink; seen = 0; emitted = 0 }

let record t ~kind ~key ~outcome ~nodes ~level ?latency () =
  let sampled = t.seen mod t.sample_every = 0 in
  t.seen <- t.seen + 1;
  if sampled then begin
    let latency = match latency with Some _ as l -> l | None -> t.latency in
    let span = Span.make ~id:t.emitted ~kind ~key ~outcome ~nodes ~level ?latency () in
    t.emitted <- t.emitted + 1;
    Sink.write t.sink span
  end

let set_latency t oracle = t.latency <- oracle

let seen t = t.seen

let emitted t = t.emitted

let flush t = Sink.close t.sink

let current : t option ref = ref None

let set_ambient tr = current := tr

let ambient () = !current
