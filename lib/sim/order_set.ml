(* [tree.(i)], for 1-based i, counts the members among the 0-based
   indices [i - lowbit i, i). *)
type t = {
  tree : int array;
  members : Bytes.t; (* '\001' at each member *)
  top : int; (* largest power of two <= capacity, for the [nth] descent *)
  mutable count : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Order_set.create: negative capacity";
  let top = ref 1 in
  while 2 * !top <= capacity do
    top := 2 * !top
  done;
  { tree = Array.make (capacity + 1) 0; members = Bytes.make capacity '\000'; top = !top; count = 0 }

let capacity t = Bytes.length t.members

(* Sets index [i]'s membership byte to [bit], updating the counts when
   it changes. *)
let set t i bit ~name =
  if i < 0 || i >= capacity t then invalid_arg ("Order_set." ^ name ^ ": out of range");
  if Bytes.get t.members i <> bit then begin
    Bytes.set t.members i bit;
    let delta = if bit = '\001' then 1 else -1 in
    let j = ref (i + 1) in
    while !j <= capacity t do
      t.tree.(!j) <- t.tree.(!j) + delta;
      j := !j + (!j land - !j)
    done;
    t.count <- t.count + delta
  end

let add t i = set t i '\001' ~name:"add"

let remove t i = set t i '\000' ~name:"remove"

let count t = t.count

(* Descend from the largest power of two: [pos] ends as the longest
   prefix holding at most [j] members, so index [pos] is the answer. *)
let nth t j =
  if j < 0 || j >= t.count then invalid_arg "Order_set.nth: rank out of range";
  let pos = ref 0 and rest = ref j and step = ref t.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= capacity t && t.tree.(next) <= !rest then begin
      pos := next;
      rest := !rest - t.tree.(next)
    end;
    step := !step lsr 1
  done;
  !pos
