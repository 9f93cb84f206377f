(* SplitMix64: a small, fast, deterministic PRNG.

   The whole reproduction depends on replayable executions, so we avoid the
   global Stdlib.Random state and thread explicit generators instead. *)

(* The state lives unboxed in 8 bytes: a [mutable int64] record field
   would box a fresh [Int64] on every draw, and the scheduler draws once
   per step.  With [next] inlined into its callers, [int], [bits] and
   [bool] allocate nothing. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let[@inline] next t =
  let open Int64 in
  let s = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2) (* 62 non-negative bits *)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992. (* 2^53 *)

let split t = create (Int64.to_int (next t))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
