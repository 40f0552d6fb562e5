type target =
  | Null
  | Memory of Span.t list ref  (* reversed *)
  | File of out_channel

type t = { target : target; mutable closed : bool }

let null = { target = Null; closed = false }

let memory () = { target = Memory (ref []); closed = false }

let jsonl_file path = { target = File (open_out path); closed = false }

let write t span =
  if not t.closed then
    match t.target with
    | Null -> ()
    | Memory spans -> spans := span :: !spans
    | File oc ->
        output_string oc (Span.to_jsonl span);
        output_char oc '\n'

let spans t = match t.target with Memory spans -> List.rev !spans | Null | File _ -> []

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.target with
    | File oc -> close_out oc
    | Null | Memory _ -> ()
  end
