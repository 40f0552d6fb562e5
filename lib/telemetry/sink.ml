type target =
  | Null
  | Memory of string list ref  (* reversed *)
  | File of out_channel

type t = { target : target; mutable closed : bool }

let null = { target = Null; closed = false }

let memory () = { target = Memory (ref []); closed = false }

let jsonl_file path = { target = File (open_out path); closed = false }

let write t line =
  if not t.closed then
    match t.target with
    | Null -> ()
    | Memory lines -> lines := line :: !lines
    | File oc ->
        output_string oc line;
        output_char oc '\n'

let keeps t = (not t.closed) && match t.target with Null -> false | Memory _ | File _ -> true

let lines t = match t.target with Memory lines -> List.rev !lines | Null | File _ -> []

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.target with
    | File oc -> close_out oc
    | Null | Memory _ -> ()
  end
