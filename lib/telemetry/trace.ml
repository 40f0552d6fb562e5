type t = {
  capacity : int;
  sample_every : int;
  mutable latency : (int -> int -> float) option;
  sink : Sink.t;
  retained : Span.t Queue.t;
  mutable seen : int;
  mutable emitted : int;
}

let create ?(capacity = 4096) ?(sample_every = 1) ?(sink = Sink.null) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  if sample_every < 1 then invalid_arg "Trace.create: sample_every < 1";
  let retained = Queue.create () in
  { capacity; sample_every; latency = None; sink; retained; seen = 0; emitted = 0 }

let record t ~kind ~key ~outcome ~nodes ~level ?latency () =
  let sampled = t.seen mod t.sample_every = 0 in
  t.seen <- t.seen + 1;
  if sampled then begin
    let latency = match latency with Some _ as l -> l | None -> t.latency in
    let span = Span.make ~id:t.emitted ~kind ~key ~outcome ~nodes ~level ?latency () in
    t.emitted <- t.emitted + 1;
    Queue.push span t.retained;
    if Queue.length t.retained > t.capacity then ignore (Queue.pop t.retained);
    if Sink.keeps t.sink then Sink.write t.sink (Span.to_jsonl span)
  end

let set_latency t oracle = t.latency <- oracle

let seen t = t.seen

let emitted t = t.emitted

let spans t = List.of_seq (Queue.to_seq t.retained)


let flush t = Sink.close t.sink

let current : t option ref = ref None

let set_ambient tr = current := tr

let ambient () = !current
