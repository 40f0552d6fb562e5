(* Paper-scale golden tables: runs every pinned experiment at paper
   scale and seed 42 and prints one line per table, the experiment name
   and the MD5 digest of its rendered table. Wall seconds per experiment
   go to stderr.

   Usage:
     paper_digests.exe                 # print the digests
     paper_digests.exe --check FILE    # exit 1 unless they equal FILE's

   The [@paper-golden] alias runs the check against
   [paper_digests.expected]; a change that means to alter a paper-scale
   table regenerates that file with
   [dune exec --profile release test/golden/paper_digests.exe >
   test/golden/paper_digests.expected]. *)

open Canon_experiments

let digest (e : Registry.t) =
  let t0 = Unix.gettimeofday () in
  let table = Registry.run e ~scale:`Paper ~seed:42 in
  Printf.eprintf "%s %.1f s\n%!" e.name (Unix.gettimeofday () -. t0);
  (e.name, Digest.to_hex (Digest.string (Canon_stats.Table.render table)))

(* [name digest] lines as an association list. *)
let read_digests file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with [ name; hex ] -> Some (name, hex) | _ -> None)

let () =
  let check =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> None
    | [ "--check"; file ] -> Some file
    | _ ->
        prerr_endline "usage: paper_digests.exe [--check FILE]";
        exit 2
  in
  let digests = List.map digest (List.filter (fun (e : Registry.t) -> e.pinned) Registry.all) in
  match check with
  | None -> List.iter (fun (name, hex) -> Printf.printf "%s %s\n" name hex) digests
  | Some file ->
      let expected = read_digests file in
      let changed =
        List.filter (fun (name, hex) -> List.assoc_opt name expected <> Some hex) digests
      in
      List.iter
        (fun (name, hex) ->
          Printf.printf "paper table %s changed: expected %s, got %s\n" name
            (Option.value (List.assoc_opt name expected) ~default:"(none)")
            hex)
        changed;
      if changed <> [] then exit 1;
      Printf.printf "%d paper-scale tables match %s\n" (List.length digests) file
