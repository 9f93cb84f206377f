(* Partial-order-reduction glue: the bridge between the runtime's
   footprints and the scheduler's int-typed POR hooks.

   One harness per campaign (reusable across campaigns via [reset]; the
   persistent-mode Engine holds one).  It wraps the campaign's policy so
   that every preemption point records

   - the *pending* footprint of the op a fiber is about to execute
     (recorded in [before], ahead of the policy's yield — the scheduler
     consults it to decide who sleeps), and
   - the *executed* footprint of the op(s) a scheduler step completed
     (recorded in [after]; two or more ops in one step — possible under
     No_preempt, whose policy never yields — escalate to
     [Footprint.opaque], which commutes with nothing).

   It also folds every executed op into a canonical Mazurkiewicz-trace
   hash: each op's Foata layer (1 + the highest layer it depends on) is
   invariant under commuting-swap reorderings of the schedule, so XORing
   a mix of (footprint, layer, tid, per-fiber sequence number) over all
   ops yields the same digest for every schedule in the same trace
   class, independent of execution order.  The fuzzer dedupes campaigns
   by this digest before spending post-failure validation.

   Hot-path design (the --por perf pass): digesting runs once per
   scheduler step, so it must cost like the scheduler's own step, not
   like a hashtable workload.

   - The Foata-layer maps are two flat generation-stamped
     open-addressing tables sized from the pool at harness creation: a
     word table packing (write layer, read layer) into one int and a
     line table packing (flush layer, access layer).  An op claims its
     word and line slots once, reads both packed halves for its floor,
     and max-merges its bumps in place — two probes per op where the
     old four-Hashtbl layout paid four to six.  A probe is one array
     read (keys are dense word/line indices, so [key land mask] rarely
     collides); resetting between campaigns is a generation bump, like
     the pool's pending-word index — no [Hashtbl.reset], no boxing, no
     rehash.
   - The digest accumulates in a native [int] with a splitmix-style
     finalizer: zero allocation per op, where the old [Int64] mixer
     boxed every intermediate.  [trace_hash] converts at the boundary.
   - A per-fiber frontier-clock fast path: when the stepping fiber
     already owns the highest layer ([fiber_layer = max_layer]), every
     table value is <= its own clock, so the op's layer is
     [fiber_layer + 1] without probing any table, and the bumps become
     unconditional overwrites. *)

module Footprint = Runtime.Footprint

(* Flat generation-stamped open-addressing int->int tables.  A slot is
   live iff its stamp equals the current generation, so [reset] is a
   generation bump; stale slots are overwritten on claim.  Keys are pool
   word/line indices — dense and bounded — so the initial capacity (2x
   the pool) makes probes effectively direct-indexed; arbitrary keys
   (synthetic tests) still work via linear probing and growth.  [claim]
   returns the slot index, so the caller reads the current value and
   writes the merged one back without a second probe. *)
module Ftbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamps : int array;
    mutable mask : int; (* capacity - 1; capacity is a power of two *)
    mutable live : int; (* slots stamped with the current generation *)
    mutable gen : int;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create hint =
    let cap = pow2 (max 16 hint) 16 in
    {
      keys = Array.make cap 0;
      vals = Array.make cap 0;
      stamps = Array.make cap 0;
      mask = cap - 1;
      live = 0;
      gen = 1;
    }

  let reset t =
    t.gen <- t.gen + 1;
    t.live <- 0

  (* First slot that is free (stale stamp) or holds [k] this generation.
     Keys are dense pool indices against a 2x-pool capacity, so the first
     probe nearly always hits; unsafe reads keep the common case at two
     loads (indices are masked, so they are in bounds by construction). *)
  let rec probe t k i =
    if Array.unsafe_get t.stamps i <> t.gen || Array.unsafe_get t.keys i = k then i
    else probe t k ((i + 1) land t.mask)

  let grow t =
    let keys = t.keys and vals = t.vals and stamps = t.stamps and gen = t.gen in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.stamps <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i s ->
        if s = gen then begin
          let j = probe t keys.(i) (keys.(i) land t.mask) in
          t.keys.(j) <- keys.(i);
          t.vals.(j) <- vals.(i);
          t.stamps.(j) <- gen
        end)
      stamps

  (* The slot for [k] this generation, claiming (value 0) a free one if
     absent.  Growth invalidates indices, so claim re-probes after it. *)
  let rec claim t k =
    let i = probe t k (k land t.mask) in
    if t.stamps.(i) = t.gen then i
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- 0;
      t.stamps.(i) <- t.gen;
      t.live <- t.live + 1;
      if 2 * t.live > t.mask then begin
        grow t;
        claim t k
      end
      else i
    end
end

type t = {
  nthreads : int;
  pending : int array; (* tid -> footprint of the fiber's next op, 0 = unknown *)
  step_fp : int array;
      (* one shared cell: footprint of the current step, handed to the
         scheduler by reference ({!Sched.Scheduler.por.step_fp}) so a
         step that ran nothing instrumented needs no call to say so *)
  hooks : Sched.Scheduler.por;
      (* the scheduler's view of [pending]/[step_fp], built once; its
         pruning counters are the last run's *)
  (* Foata layering state.  Two packed tables: per word,
     (write layer lsl 31) lor read layer; per line,
     (flush layer lsl 31) lor access layer.  Layers are bounded by the
     step budget, far below 2^31. *)
  word_layers : Ftbl.t;
  line_layers : Ftbl.t;
  mutable fence_layer : int;
  mutable max_layer : int;
  fiber_layer : int array; (* tid -> layer of the fiber's latest op *)
  fiber_seq : int array; (* tid -> ops executed by the fiber so far *)
  mutable hash : int;
}

let create ?(pool_words = 1024) ~nthreads () =
  let n = max 1 nthreads in
  let words = max 64 pool_words in
  let pending = Array.make n 0 and step_fp = [| 0 |] in
  {
    nthreads = n;
    pending;
    step_fp;
    hooks =
      {
        pending;
        step_fp;
        independent = Footprint.independent;
        spin = Footprint.spin_retry;
        pruned_picks = 0;
        forced_wakes = 0;
      };
    word_layers = Ftbl.create (2 * words);
    line_layers = Ftbl.create (2 * words / Pmem.Cacheline.words_per_line);
    fence_layer = 0;
    max_layer = 0;
    fiber_layer = Array.make n 0;
    fiber_seq = Array.make n 0;
    hash = 0;
  }

let reset t =
  Array.fill t.pending 0 t.nthreads 0;
  t.step_fp.(0) <- 0;
  t.hooks.pruned_picks <- 0;
  t.hooks.forced_wakes <- 0;
  Ftbl.reset t.word_layers;
  Ftbl.reset t.line_layers;
  t.fence_layer <- 0;
  t.max_layer <- 0;
  Array.fill t.fiber_layer 0 t.nthreads 0;
  Array.fill t.fiber_seq 0 t.nthreads 0;
  t.hash <- 0

(* splitmix-style finalizer over the native int — allocation-free, unlike
   boxed Int64 arithmetic.  Constants are 62-bit odd multipliers; the
   avalanche only needs to spread dedup keys, not be cryptographic. *)
let[@inline] mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x61C8864680B583EB in
  x lxor (x lsr 31)

(* Packed-layer split: low 31 bits hold the read (word table) / access
   (line table) layer, the bits above hold the write / flush layer. *)
let lshift = 31
let lmask = (1 lsl lshift) - 1

(* Fold one executed op into the Foata layering and the trace digest.
   Bumps are max-merges and floors are maxes over key (and packed-half)
   sets disjoint from them for any independent pair, so the resulting
   layers — and the XOR of the per-op mixes — are invariant under
   commuting-swap reorderings (pinned by the trace-hash QCheck
   property).  Each op claims its word and line slots once and updates
   them in place: two table probes per op.  The frontier-clock fast
   path skips the floor reads (not the bumps): when the stepping fiber
   already owns the highest layer, no table value nor the fence layer
   can exceed its own clock, so the op stacks directly on it. *)
let digest_op t tid fp =
  let tag = fp land 7 in
  let fiber = t.fiber_layer.(tid) in
  let frontier = fiber >= t.max_layer in
  let layer =
    if tag >= 1 && tag <= 3 then begin
      (* Word-level op: floor = write layer (plus read layer for
         writers), the line's flush layer, and the fence layer. *)
      let wi = Ftbl.claim t.word_layers (fp lsr 3) in
      let li = Ftbl.claim t.line_layers (Footprint.line fp) in
      (* Slot indices come masked out of [claim]; read the arrays after
         both claims (growth swaps them out). *)
      let wvals = t.word_layers.Ftbl.vals and lvals = t.line_layers.Ftbl.vals in
      let wv = Array.unsafe_get wvals wi in
      let lv = Array.unsafe_get lvals li in
      let layer =
        if frontier then 1 + fiber
        else
          let floor =
            if tag = 1 then max (wv lsr lshift) (max (lv lsr lshift) t.fence_layer)
            else max (max (wv lsr lshift) (wv land lmask)) (max (lv lsr lshift) t.fence_layer)
          in
          1 + max floor fiber
      in
      let wv' =
        if tag = 1 then ((wv lsr lshift) lsl lshift) lor max (wv land lmask) layer
        else if tag = 2 then (max (wv lsr lshift) layer lsl lshift) lor (wv land lmask)
        else (max (wv lsr lshift) layer lsl lshift) lor max (wv land lmask) layer
      in
      Array.unsafe_set wvals wi wv';
      (* Any word-level op raises the line's access layer. *)
      Array.unsafe_set lvals li (((lv lsr lshift) lsl lshift) lor max (lv land lmask) layer);
      layer
    end
    else if tag = 4 then begin
      let li = Ftbl.claim t.line_layers (fp lsr 3) in
      let lvals = t.line_layers.Ftbl.vals in
      let lv = Array.unsafe_get lvals li in
      let layer =
        if frontier then 1 + fiber
        else 1 + max (max (lv land lmask) (max (lv lsr lshift) t.fence_layer)) fiber
      in
      Array.unsafe_set lvals li ((max (lv lsr lshift) layer lsl lshift) lor (lv land lmask));
      layer
    end
    else begin
      (* Fence / opaque (and none): above everything so far. *)
      let layer = 1 + if frontier then fiber else max t.max_layer fiber in
      t.fence_layer <- layer;
      layer
    end
  in
  if layer > t.max_layer then t.max_layer <- layer;
  t.fiber_layer.(tid) <- layer;
  let seq = t.fiber_seq.(tid) + 1 in
  t.fiber_seq.(tid) <- seq;
  (* One avalanche round over the op's identity (footprint, layer,
     per-fiber sequence number, tid) is enough spread for an XOR-folded
     dedup key; a second round buys nothing but latency on the hot path. *)
  let h = mix (fp lxor (layer lsl 40) lxor (seq lsl 22) lxor tid) in
  t.hash <- t.hash lxor h

(* Fold one executed op into the step accumulator and the trace hash.
   The first op of a step sets the cell; a second op in the same step
   (possible under No_preempt, whose policy never yields) escalates it
   to [opaque], which commutes with nothing. *)
let record t tid fp =
  let cell = t.step_fp in
  let prev = Array.unsafe_get cell 0 in
  Array.unsafe_set cell 0 (if prev = 0 then fp else Footprint.opaque);
  if tid >= 0 && tid < t.nthreads then digest_op t tid fp

let record_op = record

(* Wrap a campaign policy with footprint recording.  Ordering matters:
   [before] records the pending footprint ahead of the base hook (whose
   yield suspends the fiber — the scheduler must see the footprint while
   the fiber sleeps), and [after] attributes the executed op to the
   current step ahead of the base hook (sync policies yield in [after]
   too, which would otherwise smear the op into the next step). *)
let wrap t (base : Runtime.Env.policy) : Runtime.Env.policy =
  {
    before =
      (fun ctx fp ->
        if ctx.tid >= 0 && ctx.tid < t.nthreads then t.pending.(ctx.tid) <- fp;
        base.before ctx fp);
    after =
      (fun ctx fp ->
        let tid = ctx.tid in
        if tid >= 0 && tid < t.nthreads then t.pending.(tid) <- 0;
        record t tid fp;
        base.after ctx fp);
  }

let hooks t = t.hooks

let trace_hash t = Int64.of_int t.hash
let capacity t = t.nthreads

type stats = {
  s_trace_hash : int64;  (** canonical Mazurkiewicz-trace digest *)
  s_pruned_picks : int;
  s_forced_wakes : int;
}

let stats t =
  {
    s_trace_hash = Int64.of_int t.hash;
    s_pruned_picks = t.hooks.pruned_picks;
    s_forced_wakes = t.hooks.forced_wakes;
  }
