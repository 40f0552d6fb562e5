type event = { node : int; level : int; cum_latency : float }

type outcome =
  | Arrived
  | Stuck
  | Stranded

type t = {
  id : int;
  kind : string;
  src : int;
  key : int;
  outcome : outcome;
  events : event array;
}

let make ~id ~kind ~key ~outcome ~nodes ~level ?latency () =
  if Array.length nodes = 0 then invalid_arg "Span.make: empty node sequence";
  let cum = ref 0.0 in
  let events =
    Array.mapi
      (fun i node ->
        if i = 0 then { node; level = -1; cum_latency = 0.0 }
        else begin
          let u = nodes.(i - 1) in
          (match latency with
          | None -> ()
          | Some oracle -> cum := !cum +. oracle u node);
          { node; level = level u node; cum_latency = !cum }
        end)
      nodes
  in
  { id; kind; src = nodes.(0); key; outcome; events }

let path t = Array.map (fun e -> e.node) t.events

let outcome_to_string = function
  | Arrived -> "arrived"
  | Stuck -> "stuck"
  | Stranded -> "stranded"

let to_json t =
  Json.Obj
    [
      ("id", Json.Int t.id);
      ("kind", Json.String t.kind);
      ("src", Json.Int t.src);
      ("key", Json.Int t.key);
      ("outcome", Json.String (outcome_to_string t.outcome));
      ("hops", Json.Int (Array.length t.events - 1));
      ( "events",
        Json.List
          (Array.to_list
             (Array.map
                (fun e ->
                  Json.Obj
                    [
                      ("node", Json.Int e.node);
                      ("level", Json.Int e.level);
                      ("lat", Json.Float e.cum_latency);
                    ])
                t.events)) );
    ]

let to_jsonl t = Json.to_string (to_json t)
