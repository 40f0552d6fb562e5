(* Prints every quick-scale golden experiment table at seed 42, with
   nothing that varies between runs (no wall times, no git revision).
   The output is the golden file the [runtest] alias diffs against. *)

let () =
  List.iter
    (fun (name, run) ->
      Printf.printf "== %s ==\n" name;
      Canon_stats.Table.print (run ~scale:`Quick ~seed:42);
      print_newline ())
    Golden_experiments.all
