(* Taint label sets for the dynamic data-flow analysis (§4.3).

   A label is the id of a PM Inter-/Intra-thread Inconsistency Candidate:
   it is created when a load observes non-persisted data and propagates
   through every computation deriving from that value.  Most sets are
   empty, but not all are small.  Replaying the 17 bug groups of a
   300-campaign memcached-pmem session (master seed 5, 16 crash images),
   79% of the operands of [add] and [union] are empty, 6% hold one label,
   4% two to seven, and 11% between 8 and 174; the fuzzing session that
   recorded it reaches 229 labels.

   Candidate ids are dense and increasing within one checker, so the label
   a dirty load adds is larger than every label already in the set.  The
   list is therefore kept newest first (strictly decreasing): that add is
   a cons, and a value derived from another shares its tail.  [union]
   keeps the sharing: it returns an operand physically when that operand
   already holds the other, and stops at a physically common tail. *)

type t = int list (* strictly decreasing *)

let empty = []
let is_empty t = t = []
let singleton l = [ l ]

let rec add l = function
  | x :: rest as t ->
      if l > x then l :: t
      else if l = x then t
      else
        let r = add l rest in
        if r == rest then t else x :: r
  | [] -> [ l ]

let rec union a b =
  if a == b then a
  else
    match (a, b) with
    | [], t | t, [] -> t
    | x :: xs, y :: ys ->
        if x > y then
          let r = union xs b in
          if r == xs then a else x :: r
        else if y > x then
          let r = union a ys in
          if r == ys then b else y :: r
        else
          let r = union xs ys in
          if r == xs then a else if r == ys then b else x :: r

let rec mem l = function x :: rest -> x = l || (x > l && mem l rest) | [] -> false
let rec fold f t acc = match t with l :: rest -> fold f rest (f l acc) | [] -> acc
let labels t = List.rev t
let of_labels ls = List.fold_left (fun acc l -> add l acc) empty ls
let cardinal = List.length
let equal = ( = )
let pp ppf t = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (labels t)
