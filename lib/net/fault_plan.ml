open Canon_hierarchy
open Canon_overlay
module Rng = Canon_rng.Rng

type t = {
  n : int;
  mutable loss : float;
  crashed : bool array;
}

let check_loss loss =
  if not (Float.is_finite loss) || loss < 0.0 || loss > 1.0 then
    invalid_arg "Fault_plan: loss must be in [0, 1]"

let create ?(loss = 0.0) ~n () =
  if n < 0 then invalid_arg "Fault_plan.create: negative size";
  check_loss loss;
  { n; loss; crashed = Array.make n false }

let none ~n = create ~n ()

let size t = t.n

let set_loss t loss =
  check_loss loss;
  t.loss <- loss

let check_node t v ctx =
  if v < 0 || v >= t.n then invalid_arg ("Fault_plan." ^ ctx ^ ": node out of range")

let crash t v =
  check_node t v "crash";
  t.crashed.(v) <- true

let revive t v =
  check_node t v "revive";
  t.crashed.(v) <- false

let is_crashed t v =
  check_node t v "is_crashed";
  t.crashed.(v)

let crashed_count t = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.crashed

let crash_random t rng ~fraction ?(protect = fun _ -> false) () =
  if not (Float.is_finite fraction) || fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Fault_plan.crash_random: fraction must be in [0, 1]";
  for v = 0 to t.n - 1 do
    if (not (protect v)) && Rng.float rng < fraction then t.crashed.(v) <- true
  done

let crash_domain t pop ~domain =
  if Population.size pop <> t.n then
    invalid_arg "Fault_plan.crash_domain: population size mismatch";
  let tree = pop.Population.tree in
  for v = 0 to t.n - 1 do
    if Domain_tree.is_ancestor tree ~anc:domain ~desc:pop.Population.leaf_of_node.(v) then
      t.crashed.(v) <- true
  done

let draw_lost t rng = t.loss > 0.0 && Rng.float rng < t.loss
