(* Prints every pinned experiment's quick-scale table at seed 42, with
   nothing that varies between runs (no wall times, no git revision).
   The output is the golden file the [runtest] alias diffs against.

   Then it runs them all again in reverse order, in the same process,
   and exits 1 unless every table is the same: no global state (the
   metrics registry, the ambient trace, a memo) may leak from one
   experiment into the next. *)

open Canon_experiments

let pinned = List.filter (fun (e : Registry.t) -> e.pinned) Registry.all

let render (e : Registry.t) = Canon_stats.Table.render (Registry.run e ~scale:`Quick ~seed:42)

let () =
  let first =
    List.map
      (fun (e : Registry.t) ->
        let table = render e in
        Printf.printf "== %s ==\n%s\n" e.name table;
        (e.name, table))
      pinned
  in
  let again = List.map (fun (e : Registry.t) -> (e.name, render e)) (List.rev pinned) in
  let changed = List.filter (fun (name, table) -> table <> List.assoc name first) again in
  List.iter
    (fun (name, _) -> Printf.eprintf "table %s differs when run in reverse order\n" name)
    changed;
  if changed <> [] then exit 1
