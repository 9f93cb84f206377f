(* Host-speed calibration.

   The host slows this guest down by up to 1.5x, in phases that can last
   longer than a run, and no order statistic inside one run can hide a
   phase that covers all of it.  So every run also times a fixed kernel
   of the benchmark's own code, twice after each block, and scales its
   times to a host on which the kernel's lower-quartile run takes
   [reference_s].  The kernel mixes what the program under test does:
   dependent loads over a working set larger than the caches, hashing
   and sorting.  It allocates nothing, so the program's garbage cannot
   make it slower through the GC, and its big working set lives in a
   Bigarray, outside the OCaml heap, so it does not show in the
   program's heap metrics. *)

let reference_s = 0.025

(* One random cycle through 2^20 slots (Sattolo's algorithm), 8 MB. *)
let ring =
  let n = 1 lsl 20 in
  let a = Bigarray.(Array1.create int c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  let rng = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let chase steps =
  let i = ref 0 in
  for _ = 1 to steps do
    i := Bigarray.Array1.unsafe_get ring !i
  done;
  !i

(* Insert-or-find in an open-addressing table, half full. *)
let slots = 1 lsl 12
let table = Array.make slots 0

let probe rounds =
  let found = ref 0 in
  for r = 1 to rounds do
    Array.fill table 0 slots 0;
    for i = 1 to slots / 2 do
      let key = (i * 7919) + (r land 3) + 1 in
      let h = ref (((key * 0x9E3779B1) lsr 7) land (slots - 1)) in
      while table.(!h) <> 0 && table.(!h) <> key do
        h := (!h + 1) land (slots - 1)
      done;
      if table.(!h) = key then incr found else table.(!h) <- key
    done
  done;
  !found

(* Shell sort in place: [Array.sort] allocates. *)
let scratch = Array.make 8192 0
let gaps = [| 1750; 701; 301; 132; 57; 23; 10; 4; 1 |]

let sort rounds =
  let n = Array.length scratch in
  for r = 1 to rounds do
    for i = 0 to n - 1 do
      scratch.(i) <- ((i * 48271) + r) land 0xffff
    done;
    for g = 0 to Array.length gaps - 1 do
      let gap = gaps.(g) in
      for i = gap to n - 1 do
        let x = scratch.(i) and j = ref i in
        while !j >= gap && scratch.(!j - gap) > x do
          scratch.(!j) <- scratch.(!j - gap);
          j := !j - gap
        done;
        scratch.(!j) <- x
      done
    done
  done;
  scratch.(0)

let kernel () = chase 100_000 + probe 400 + sort 10

(* CPU seconds of one kernel run. *)
let time () =
  let c0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ()));
  Sys.time () -. c0
