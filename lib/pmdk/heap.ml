(* Persistent bump allocator.

   Heap metadata is a single persistent word (the bump pointer) published
   with non-temporal stores, so allocator metadata itself never produces
   inconsistency candidates — matching PMDK's allocator, whose internal
   redo logging makes its metadata crash-consistent.

   Allocations are word-granular and rounded up to a cache line so that
   objects never share lines (PMDK's allocator also returns line-aligned
   chunks for exactly this reason). *)

module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr

let i_format = Instr.site "pmdk/heap_format"
let i_alloc = Instr.site "pmdk/heap_alloc"

let bump_off = Layout.heap_meta
let limit_off = Layout.heap_meta + 1

exception Out_of_memory

let format ctx ~pool_words =
  Mem.movnt ctx ~instr:i_format (Tval.of_int bump_off) (Int64.of_int Layout.heap_base |> Tval.of_int64);
  Mem.movnt ctx ~instr:i_format (Tval.of_int limit_off) (Int64.of_int pool_words |> Tval.of_int64);
  Mem.sfence ctx ~instr:i_format

let round_up_line n =
  let l = Pmem.Cacheline.words_per_line in
  (n + l - 1) / l * l

(* Allocate [words] words; returns the word offset of the chunk.  The
   returned offset is untainted: PMDK's allocator validates its metadata
   via redo logs, so offsets it returns are trustworthy.  The CAS loop
   makes concurrent allocations race-free. *)
let alloc ctx ~words =
  if words <= 0 then invalid_arg "Heap.alloc: words must be positive";
  let words = round_up_line words in
  let rec try_alloc () =
    let cur = Mem.load ctx ~instr:i_alloc (Tval.of_int bump_off) in
    let limit = Mem.load ctx ~instr:i_alloc (Tval.of_int limit_off) in
    let next = Tval.to_int cur + words in
    if next > Tval.to_int limit then raise Out_of_memory;
    if
      Mem.cas ~nt:true ctx ~instr:i_alloc (Tval.of_int bump_off) ~expect:(Tval.untainted cur)
        ~value:(Tval.of_int next)
    then begin
      Mem.sfence ctx ~instr:i_alloc;
      Tval.to_int (Tval.untainted cur)
    end
    else try_alloc ()
  in
  try_alloc ()

let used ctx =
  let cur = Mem.load ctx ~instr:i_alloc (Tval.of_int bump_off) in
  Tval.to_int cur - Layout.heap_base
