type t = { mutable counts : int array; mutable total : int }

let create () = { counts = Array.make 64 0; total = 0 }

let ensure t v =
  let n = Array.length t.counts in
  if v >= n then begin
    let counts = Array.make (max (v + 1) (2 * n)) 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  ensure t v;
  t.counts.(v) <- t.counts.(v) + 1;
  t.total <- t.total + 1

let count t v = if v < 0 || v >= Array.length t.counts then 0 else t.counts.(v)

let total t = t.total

let max_value t =
  let rec go i = if i < 0 then 0 else if t.counts.(i) > 0 then i else go (i - 1) in
  go (Array.length t.counts - 1)
