(* Order statistics over per-block samples.

   Host slowdowns only ever add time, and every block of a unit does the
   same work, so the benchmark's timing estimator is the fastest block:
   the minimum of a time, and throughput as work over that minimum.  The
   lower quartile, the other candidate, moved about twice as much from
   one run to the next (see README.md). *)

(* Linear interpolation between closest ranks: [q = 0] is the minimum,
   [q = 1] the maximum. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let fastest xs = quantile xs 0.
let median xs = quantile xs 0.5

(* Per-index latencies paired across blocks: [rows.(b).(i)] is operation
   [i]'s latency in block [b]; the result holds, for each [i], its
   fastest reading across blocks.  Blocks run identical work, so
   operation [i] is the same computation in every block. *)
let paired rows =
  let n = Array.length rows.(0) in
  Array.init n (fun i -> fastest (Array.map (fun r -> r.(i)) rows))

(* One line of the spread report: the block count and the blocks' min,
   p25 and p75, so a run that sat in a slow host stretch shows in its own
   output. *)
let pp_spread ppf (name, unit, xs) =
  let q = quantile xs in
  Format.fprintf ppf "  %-28s %-3s  blocks %3d  min %10.4f  p25 %10.4f  p75 %10.4f@." name unit
    (Array.length xs) (q 0.) (q 0.25) (q 0.75)
