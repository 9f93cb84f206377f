(* Compact access summaries: the one description of an instrumented
   operation, read by the policy hooks and by partial-order reduction.

   A footprint is one immediate int: tag in the low 3 bits, payload
   (word index for word-level ops, line index for flushes) above it.
   The scheduler's POR mode tests two steps for independence with a
   handful of shifts and compares — no allocation, O(1) per query.

   The encoding deliberately collapses a step to its *strongest* single
   op: a step that performs several instrumented ops (possible under
   No_preempt, where the policy never yields) escalates to [opaque],
   which conflicts with everything.  That is sound — treating dependent
   what might be independent only costs pruning, never bugs. *)

type t = int

let tag_none = 0
let tag_load = 1
let tag_store = 2
let tag_rw = 3
let tag_flush = 4
let tag_fence = 5
let tag_opaque = 6

let none = tag_none
let fence = tag_fence
let opaque = tag_opaque
let[@inline] tag (t : t) = t land 7
let[@inline] payload (t : t) = t lsr 3
let load word = (word lsl 3) lor tag_load
let store word = (word lsl 3) lor tag_store
let rw word = (word lsl 3) lor tag_rw
let flush_line line = (line lsl 3) lor tag_flush
let flush word = flush_line (Pmem.Cacheline.line_of_word word)

(* The line a footprint touches: flushes carry a line index directly,
   word-level ops derive it.  Only meaningful for tags 1-4. *)
let[@inline] line (t : t) =
  if tag t = tag_flush then payload t else Pmem.Cacheline.line_of_word (payload t)

(* A busy-wait retry signature: the step just executed [prev] and the
   fiber's next pending op is the {e identical} read-modify-write
   footprint — the shape of a failed CAS spinning on a lock word.  Until
   some other step writes, flushes, or fences that word (all of which
   conflict with an [rw] footprint and so wake sleepers), every retry
   observes exactly the same value and persistency state, so the
   scheduler may park the spinner without losing any behaviour.  Plain
   stores and loads are excluded: a fiber legitimately issues identical
   consecutive stores, and parking it would only cost forced wakes. *)
let[@inline] spin_retry (prev : t) (next : t) = prev = next && prev land 7 = tag_rw

(* Independence of two step footprints, grounded in Pool semantics:
   - [none] (a step that ran no instrumented op, e.g. a spin iteration)
     commutes with everything;
   - fences and opaque steps commute with nothing (a fence drains every
     pending line, so it orders against any store/flush; opaque means
     "we don't know what the step did");
   - a flush conflicts with anything on the same cache line (it moves
     the whole line's pending words to durable);
   - two loads always commute;
   - otherwise (word-level with at least one write) they conflict iff
     they touch the same word. *)
let independent (a : t) (b : t) =
  a = tag_none || b = tag_none
  ||
  let ta = a land 7 and tb = b land 7 in
  if ta >= tag_fence || tb >= tag_fence then false
  else if ta = tag_flush || tb = tag_flush then line a <> line b
  else if ta = tag_load && tb = tag_load then true
  else a lsr 3 <> b lsr 3

let pp ppf (t : t) =
  match tag t with
  | 0 -> Format.fprintf ppf "none"
  | 1 -> Format.fprintf ppf "load[%d]" (payload t)
  | 2 -> Format.fprintf ppf "store[%d]" (payload t)
  | 3 -> Format.fprintf ppf "rw[%d]" (payload t)
  | 4 -> Format.fprintf ppf "flush[line %d]" (payload t)
  | 5 -> Format.fprintf ppf "fence"
  | _ -> Format.fprintf ppf "opaque"
