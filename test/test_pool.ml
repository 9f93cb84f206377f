(* Pool: the visibility/persistency gap, flush/fence pipeline, crash
   images, checkpoints and boots, eviction. *)

open Pmem

let mk () = Pool.create ~words:256 ()

let test_create_invalid () =
  Alcotest.check_raises "non-multiple size" (Invalid_argument
    "Pool.create: size must be a positive multiple of the line size")
    (fun () -> ignore (Pool.create ~words:100 ()));
  Alcotest.check_raises "zero size" (Invalid_argument
    "Pool.create: size must be a positive multiple of the line size")
    (fun () -> ignore (Pool.create ~words:0 ()))

let test_store_visible_not_durable () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 42L;
  Alcotest.(check int64) "visible" 42L (Pool.load p 10);
  Alcotest.(check bool) "dirty" true (Pool.is_dirty p 10);
  let img = Pool.crash_image p in
  Alcotest.(check int64) "not durable" 0L (Pool.image_word img 10)

let test_flush_fence_persists () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 42L;
  Pool.clwb p 10;
  Alcotest.(check bool) "clean after clwb" false (Pool.is_dirty p 10);
  Alcotest.(check bool) "pending after clwb" true (Pool.is_pending p 10);
  let img = Pool.crash_image p in
  Alcotest.(check int64) "unfenced write-back lost on crash" 0L (Pool.image_word img 10);
  let persisted = Pool.sfence p in
  Alcotest.(check (list int)) "fence reports word" [ 10 ] persisted;
  Alcotest.(check int64) "durable" 42L (Pool.image_word (Pool.crash_image p) 10)

let test_line_granular_flush () =
  let p = mk () in
  (* Words 8..15 share a line; 16 does not. *)
  Pool.store p ~tid:0 ~instr:1 8 1L;
  Pool.store p ~tid:0 ~instr:1 15 2L;
  Pool.store p ~tid:0 ~instr:1 16 3L;
  Pool.clwb p 9;
  ignore (Pool.sfence p);
  let img = Pool.crash_image p in
  Alcotest.(check int64) "same line persisted (low)" 1L (Pool.image_word img 8);
  Alcotest.(check int64) "same line persisted (high)" 2L (Pool.image_word img 15);
  Alcotest.(check int64) "next line not persisted" 0L (Pool.image_word img 16)

let test_store_after_clwb_needs_reflush () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.clwb p 10;
  Pool.store p ~tid:0 ~instr:2 10 2L;
  ignore (Pool.sfence p);
  (* The second store invalidated the pending write-back. *)
  Alcotest.(check int64) "second store not persisted" 0L
    (Pool.image_word (Pool.crash_image p) 10);
  Alcotest.(check bool) "still dirty" true (Pool.is_dirty p 10)

let test_movnt () =
  let p = mk () in
  Pool.movnt p ~tid:3 ~instr:7 20 99L;
  Alcotest.(check bool) "movnt is never dirty" false (Pool.is_dirty p 20);
  Alcotest.(check int64) "visible at once" 99L (Pool.load p 20);
  Alcotest.(check int64) "durable only after fence" 0L
    (Pool.image_word (Pool.crash_image p) 20);
  ignore (Pool.sfence p);
  Alcotest.(check int64) "durable after fence" 99L (Pool.image_word (Pool.crash_image p) 20)

let test_dirty_writer () =
  let p = mk () in
  Pool.store p ~tid:3 ~instr:7 11 5L;
  (match Pool.dirty_writer p 11 with
  | Some w ->
      Alcotest.(check int) "tid" 3 w.Pool.tid;
      Alcotest.(check int) "instr" 7 w.Pool.instr
  | None -> Alcotest.fail "expected dirty writer");
  Pool.clwb p 11;
  Alcotest.(check bool) "clean after flush" true (Pool.dirty_writer p 11 = None)

let test_eviction () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  let evicted = Pool.evict_line p (10 / Cacheline.words_per_line) in
  Alcotest.(check (list int)) "evicted words" [ 10 ] evicted;
  Alcotest.(check bool) "clean after eviction" false (Pool.is_dirty p 10);
  Alcotest.(check int64) "durable after eviction" 7L (Pool.image_word (Pool.crash_image p) 10)

let test_of_image () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Pool.clwb p 10;
  ignore (Pool.sfence p);
  Pool.store p ~tid:0 ~instr:1 11 8L (* lost *);
  let p2 = Pool.of_image (Pool.crash_image p) in
  Alcotest.(check int64) "persisted data survives" 7L (Pool.load p2 10);
  Alcotest.(check int64) "volatile data lost" 0L (Pool.load p2 11);
  Alcotest.(check (list int)) "fresh pool clean" [] (Pool.dirty_words p2)

let test_checkpoint_boot () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Pool.quiesce p;
  let img = Pool.checkpoint p in
  Pool.store p ~tid:0 ~instr:1 10 100L;
  Pool.store p ~tid:0 ~instr:1 50 1L;
  Pool.boot p img;
  Alcotest.(check int64) "rewound value" 7L (Pool.load p 10);
  Alcotest.(check int64) "other word rewound" 0L (Pool.load p 50);
  Alcotest.(check (list int)) "no dirty words after boot" [] (Pool.dirty_words p)

let test_quiesce () =
  let p = mk () in
  for w = 0 to 31 do
    Pool.store p ~tid:0 ~instr:1 w (Int64.of_int w)
  done;
  Pool.quiesce p;
  Alcotest.(check (list int)) "all clean" [] (Pool.dirty_words p);
  Alcotest.(check int64) "all durable" 31L (Pool.image_word (Pool.crash_image p) 31)

let test_bounds () =
  let p = mk () in
  Alcotest.check_raises "load oob"
    (Invalid_argument "Pool: word offset 256 out of bounds [0,256)") (fun () ->
      ignore (Pool.load p 256));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pool: word offset -1 out of bounds [0,256)") (fun () ->
      ignore (Pool.load p (-1)))

let test_durably_equal_and_pending () =
  let p = mk () in
  Alcotest.(check bool) "fresh word durably equal" true (Pool.is_durably_equal p 10);
  Pool.store p ~tid:0 ~instr:1 10 5L;
  Alcotest.(check bool) "diverged after store" false (Pool.is_durably_equal p 10);
  Pool.clwb p 10;
  Alcotest.(check (list int)) "pending words" [ 10 ] (Pool.pending_words p);
  ignore (Pool.sfence p);
  Alcotest.(check bool) "converged after persist" true (Pool.is_durably_equal p 10);
  Alcotest.(check (list int)) "nothing pending" [] (Pool.pending_words p)

let test_image_words () =
  let p = mk () in
  Alcotest.(check int) "image size" 256 (Pool.image_words (Pool.crash_image p))

(* Rewind audit: nothing campaign-local may leak across a boot from the
   checkpoint — not the store-sequence numbers that feed [dirty_writer],
   not pending write-backs. *)
let test_rewind_resets_seq () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Pool.quiesce p;
  let img = Pool.checkpoint p in
  (* Campaign A: loads, stores, flushes, plus a pending write-back left in
     flight on purpose. *)
  ignore (Pool.load p 10);
  Pool.store p ~tid:2 ~instr:9 20 1L;
  Pool.movnt p ~tid:2 ~instr:9 24 2L;
  Pool.clwb p 20;
  Pool.boot p img;
  Alcotest.(check (list int)) "no pending write-backs survive" [] (Pool.pending_words p);
  (* Campaign B's first store must see the same sequence number campaign A's
     first store saw: writer identity is part of the checkers' input. *)
  Pool.store p ~tid:0 ~instr:1 30 1L;
  let seq_b =
    match Pool.dirty_writer p 30 with Some w -> w.Pool.seq | None -> Alcotest.fail "dirty"
  in
  Pool.boot p img;
  Pool.store p ~tid:0 ~instr:1 40 1L;
  let seq_b' =
    match Pool.dirty_writer p 40 with Some w -> w.Pool.seq | None -> Alcotest.fail "dirty"
  in
  Alcotest.(check int) "writer seq identical across rewinds" seq_b seq_b'

let test_checkpoint_requires_quiesced () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Alcotest.check_raises "dirty pool rejected"
    (Invalid_argument "Pool.checkpoint: pool not quiesced (dirty or pending words)") (fun () ->
      ignore (Pool.checkpoint p));
  Pool.clwb p 10;
  Alcotest.check_raises "pending pool rejected"
    (Invalid_argument "Pool.checkpoint: pool not quiesced (dirty or pending words)") (fun () ->
      ignore (Pool.checkpoint p));
  ignore (Pool.sfence p);
  ignore (Pool.checkpoint p)

let test_rewind_o_touched () =
  let p = Pool.create ~words:4096 () in
  Pool.store p ~tid:0 ~instr:1 100 7L;
  Pool.quiesce p;
  let img = Pool.checkpoint p in
  Alcotest.(check int) "journal empty at the checkpoint" 0 (Pool.touched_words p);
  (* A campaign touching 3 words out of 4096. *)
  Pool.store p ~tid:1 ~instr:2 100 1L;
  Pool.store p ~tid:1 ~instr:2 200 2L;
  Pool.movnt p ~tid:1 ~instr:2 300 3L;
  Pool.store p ~tid:1 ~instr:2 100 4L (* re-touch: journaled once *);
  ignore (Pool.sfence p);
  Alcotest.(check int) "journal records touched words once" 3 (Pool.touched_words p);
  Pool.boot p img;
  Alcotest.(check int) "journal empty after the rewind" 0 (Pool.touched_words p);
  Alcotest.(check int64) "touched word rewound" 7L (Pool.load p 100);
  Alcotest.(check int64) "movnt'd word rewound" 0L (Pool.load p 300);
  Alcotest.(check (list int)) "no dirty words" [] (Pool.dirty_words p);
  Alcotest.(check (list int)) "no pending words" [] (Pool.pending_words p)

let test_eadr_checkpoint_roundtrip () =
  (* eADR pools have no writer metadata at all; their stores must still be
     journaled, so a rewind restores both images. *)
  let p = Pool.create ~eadr:true ~words:256 () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Alcotest.(check bool) "eadr store never dirty" false (Pool.is_dirty p 10);
  Pool.quiesce p;
  let img = Pool.checkpoint p in
  Alcotest.(check bool) "checkpoint keeps eADR" true (Pool.is_eadr p);
  Pool.store p ~tid:1 ~instr:2 10 100L;
  Pool.store p ~tid:1 ~instr:2 50 1L;
  Alcotest.(check int) "eadr stores journaled" 2 (Pool.touched_words p);
  Pool.boot p img;
  Alcotest.(check bool) "boot turns eADR off" false (Pool.is_eadr p);
  Alcotest.(check int64) "volatile rewound" 7L (Pool.load p 10);
  Alcotest.(check int64) "durable rewound" 7L (Pool.image_word (Pool.crash_image p) 10);
  Alcotest.(check int64) "other word durable-rewound" 0L
    (Pool.image_word (Pool.crash_image p) 50);
  Alcotest.(check int64) "checkpoint image untouched" 7L (Pool.image_word img 10)

(* Word-for-word agreement of two pools: volatile and durable images,
   writer metadata and pending state. *)
let pools_agree a b =
  let ia = Pool.crash_image a and ib = Pool.crash_image b in
  let ok = ref (Pool.size a = Pool.size b) in
  for w = 0 to Pool.size a - 1 do
    if not (Int64.equal (Pool.peek a w) (Pool.peek b w)) then ok := false;
    if not (Int64.equal (Pool.image_word ia w) (Pool.image_word ib w)) then ok := false;
    if Pool.dirty_writer a w <> Pool.dirty_writer b w then ok := false;
    if Pool.is_pending a w <> Pool.is_pending b w then ok := false
  done;
  !ok

let test_checkpoint_rewind_equals_full_boot () =
  (* Same campaign from two equal checkpoints: one pool rewinds to its own
     checkpoint through the journal, the other boots the first pool's
     checkpoint with a pass over the whole pool.  Both must be identical,
     and the next store must see the same writer. *)
  let campaign p =
    Pool.store p ~tid:1 ~instr:2 8 1L;
    Pool.store p ~tid:1 ~instr:3 9 2L;
    Pool.clwb p 8;
    Pool.movnt p ~tid:2 ~instr:4 64 3L;
    ignore (Pool.sfence p);
    ignore (Pool.evict_line p 2);
    ignore (Pool.load p 9)
  in
  let p1 = mk () and p2 = mk () in
  Pool.store p1 ~tid:0 ~instr:1 0 5L;
  Pool.store p2 ~tid:0 ~instr:1 0 5L;
  Pool.quiesce p1;
  Pool.quiesce p2;
  let i1 = Pool.checkpoint p1 in
  ignore (Pool.checkpoint p2);
  campaign p1;
  campaign p2;
  Pool.boot p1 i1;
  Pool.boot p2 i1;
  Alcotest.(check bool) "rewound pool ≡ fully booted pool" true (pools_agree p1 p2);
  Alcotest.(check int) "rewound journal empty" 0 (Pool.touched_words p1);
  Alcotest.(check int) "booted journal empty" 0 (Pool.touched_words p2);
  Alcotest.(check int64) "checkpoint word" 5L (Pool.load p2 0);
  Pool.store p1 ~tid:3 ~instr:5 16 1L;
  Pool.store p2 ~tid:3 ~instr:5 16 1L;
  Alcotest.(check bool) "same writer after the next store" true (pools_agree p1 p2)

let test_boot_foreign_checkpoint () =
  (* Booting an image other than the one the pool last booted from (or
     checkpointed) cannot be a journal rewind: a word the journal never
     saw may differ.  Word 10 is untouched after the switch to [iq], so
     only the whole-pool pass brings back [ip]'s value. *)
  let p = mk () and q = mk () in
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.quiesce p;
  Pool.store q ~tid:0 ~instr:1 10 2L;
  Pool.quiesce q;
  let ip = Pool.checkpoint p in
  let iq = Pool.checkpoint q in
  Pool.boot p iq;
  Alcotest.(check int64) "foreign checkpoint booted" 2L (Pool.load p 10);
  Alcotest.(check int64) "foreign checkpoint durable" 2L
    (Pool.image_word (Pool.crash_image p) 10);
  Pool.store p ~tid:0 ~instr:1 20 3L;
  Pool.boot p iq;
  Alcotest.(check int64) "rewind to the foreign checkpoint" 0L (Pool.load p 20);
  Alcotest.(check int64) "untouched word kept" 2L (Pool.load p 10);
  Pool.store p ~tid:0 ~instr:1 30 4L;
  Pool.boot p ip;
  Alcotest.(check int64) "own checkpoint back, untouched word included" 1L (Pool.load p 10);
  Alcotest.(check int64) "touched word rewound" 0L (Pool.load p 30);
  Alcotest.(check int64) "durable matches" 1L (Pool.image_word (Pool.crash_image p) 10);
  Alcotest.(check int64) "own checkpoint image untouched" 1L (Pool.image_word ip 10);
  Alcotest.(check int64) "foreign checkpoint image untouched" 2L (Pool.image_word iq 10);
  Alcotest.(check bool) "q unaffected" true (Pool.load q 10 = 2L && Pool.load q 20 = 0L)

(* Property: after an arbitrary op sequence from a checkpoint (eADR or
   not), the journal rewind leaves exactly what [of_image] of the
   checkpoint gives, and the checkpoint image never changes. *)
let prop_checkpoint_rewind_equals_of_image =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map2 (fun w v -> `Store (w, v)) (int_bound 63) (int_range 1 1000);
          map2 (fun w v -> `Movnt (w, v)) (int_bound 63) (int_range 1 1000);
          map (fun w -> `Clwb w) (int_bound 63);
          map (fun l -> `Evict l) (int_bound 7);
          return `Fence;
        ])
  in
  let ops = Gen.(list_size (int_range 0 60) op) in
  Test.make ~name:"pool: checkpoint rewind ≡ of_image" ~count:200
    (make Gen.(triple bool ops ops))
    (fun (eadr, init, campaign) ->
      let run p =
        List.iter (fun op ->
            match op with
            | `Store (w, v) -> Pool.store p ~tid:0 ~instr:0 w (Int64.of_int v)
            | `Movnt (w, v) -> Pool.movnt p ~tid:0 ~instr:0 w (Int64.of_int v)
            | `Clwb w -> Pool.clwb p w
            | `Evict l -> ignore (Pool.evict_line p l)
            | `Fence -> ignore (Pool.sfence p))
      in
      let p = Pool.create ~eadr ~words:64 () in
      run p init;
      Pool.quiesce p;
      let img = Pool.checkpoint p in
      let copy = Pool.image_copy img in
      run p campaign;
      Pool.boot p img;
      let ok = ref (pools_agree p (Pool.of_image copy) && Pool.touched_words p = 0) in
      for w = 0 to 63 do
        if not (Int64.equal (Pool.image_word img w) (Pool.image_word copy w)) then ok := false
      done;
      !ok)

(* Satellite (PR 5): the fence's work is proportional to the pending-word
   index, not the pool — the O(pending) analogue of the O(touched) reset
   assertion in test_engine.ml. *)
let test_sfence_o_pending () =
  let words = 65536 in
  let p = Pool.create ~words () in
  Pool.store p ~tid:0 ~instr:1 8 1L;
  Pool.store p ~tid:0 ~instr:1 4096 2L;
  Pool.store p ~tid:0 ~instr:1 60001 3L;
  Pool.clwb p 8;
  Pool.clwb p 4096;
  Pool.clwb p 60001;
  let work = Pool.pending_index_size p in
  Alcotest.(check int) "fence examines just the flushed words" 3 work;
  Alcotest.(check bool)
    (Printf.sprintf "fence work (%d) well under the %d-word pool" work words)
    true
    (work < words / 2);
  Alcotest.(check (list int)) "ascending persisted list" [ 8; 4096; 60001 ] (Pool.sfence p);
  Alcotest.(check int) "index drained by the fence" 0 (Pool.pending_index_size p);
  (* A re-flush after the drain re-enters the index: generations retire
     stamps, they don't blacklist words. *)
  Pool.store p ~tid:0 ~instr:1 8 4L;
  Pool.clwb p 8;
  Alcotest.(check int) "re-flushed word re-indexed" 1 (Pool.pending_index_size p);
  Alcotest.(check (list int)) "and re-persisted" [ 8 ] (Pool.sfence p)

(* Pending index across epoch bumps: a rewind after a partial
   fence must leave nothing pending, drop the in-flight write-backs, and
   keep later flush/fence rounds working. *)
let test_pending_index_across_epochs () =
  let p = mk () in
  Pool.quiesce p;
  let img = Pool.checkpoint p in
  (* Partial fence: persist one line, leave another in flight. *)
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.clwb p 10;
  ignore (Pool.sfence p);
  Pool.store p ~tid:0 ~instr:1 20 2L;
  Pool.clwb p 20;
  Pool.movnt p ~tid:0 ~instr:1 30 3L;
  Alcotest.(check int) "clwb'd + movnt'd words in flight" 2 (Pool.pending_index_size p);
  Pool.boot p img;
  Alcotest.(check int) "epoch bump empties the index" 0 (Pool.pending_index_size p);
  Alcotest.(check (list int)) "nothing pending after the rewind" [] (Pool.pending_words p);
  Alcotest.(check (list int)) "post-rewind fence persists nothing" [] (Pool.sfence p);
  Alcotest.(check int64) "in-flight write-back dropped" 0L
    (Pool.image_word (Pool.crash_image p) 20);
  Alcotest.(check int64) "fenced word rewound" 0L (Pool.image_word (Pool.crash_image p) 10);
  (* The same words flush and fence normally in the new epoch. *)
  Pool.store p ~tid:0 ~instr:1 20 5L;
  Pool.clwb p 20;
  Pool.movnt p ~tid:0 ~instr:1 30 6L;
  Alcotest.(check (list int)) "new-epoch flush persists" [ 20; 30 ] (Pool.sfence p)

(* evict/movnt/clwb interleavings around fences: eviction does not drain
   the pending index (it bypasses the write-back queue), and stores after
   CLWB leave stale index entries the fence must skip. *)
let test_pending_index_evict_store_interleaving () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.clwb p 10;
  Pool.store p ~tid:0 ~instr:2 10 2L (* invalidates the pending write-back *);
  Pool.movnt p ~tid:0 ~instr:1 40 3L;
  ignore (Pool.evict_line p (40 / Cacheline.words_per_line)) (* nothing dirty there *);
  Alcotest.(check int) "stale entry still indexed" 2 (Pool.pending_index_size p);
  Alcotest.(check (list int)) "fence skips the stale entry" [ 40 ] (Pool.sfence p);
  Alcotest.(check bool) "overwritten word still dirty" true (Pool.is_dirty p 10);
  Alcotest.(check int64) "overwritten value not persisted" 0L
    (Pool.image_word (Pool.crash_image p) 10)

(* Property (PR 5): [sfence] ≡ [sfence_scan] — run arbitrary op sequences
   on two pools in lockstep, fencing one through the O(pending) index and
   the other through the legacy full scan; every fence must return the
   same persisted list and the pools must stay bit-identical. *)
let prop_sfence_equals_scan =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map2 (fun w v -> `Store (w, v)) (int_bound 63) (int_range 1 1000);
          map2 (fun w v -> `Movnt (w, v)) (int_bound 63) (int_range 1 1000);
          map (fun w -> `Clwb w) (int_bound 63);
          map (fun l -> `Evict l) (int_bound 7);
          return `Fence;
          return `Quiesce;
        ])
  in
  Test.make ~name:"pool: sfence ≡ sfence_scan (lockstep)" ~count:300
    (make Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let p1 = Pool.create ~words:64 () and p2 = Pool.create ~words:64 () in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Store (w, v) ->
              Pool.store p1 ~tid:0 ~instr:0 w (Int64.of_int v);
              Pool.store p2 ~tid:0 ~instr:0 w (Int64.of_int v)
          | `Movnt (w, v) ->
              Pool.movnt p1 ~tid:0 ~instr:0 w (Int64.of_int v);
              Pool.movnt p2 ~tid:0 ~instr:0 w (Int64.of_int v)
          | `Clwb w ->
              Pool.clwb p1 w;
              Pool.clwb p2 w
          | `Evict l ->
              if Pool.evict_line p1 l <> Pool.evict_line p2 l then ok := false
          | `Fence -> if Pool.sfence p1 <> Pool.sfence_scan p2 then ok := false
          | `Quiesce ->
              (* quiesce routes through the indexed fence on both pools;
                 it must agree with the scan-fenced pool's state too. *)
              Pool.quiesce p1;
              Pool.quiesce p2)
        ops;
      for w = 0 to 63 do
        if not (Int64.equal (Pool.peek p1 w) (Pool.peek p2 w)) then ok := false;
        if
          not
            (Int64.equal
               (Pool.image_word (Pool.crash_image p1) w)
               (Pool.image_word (Pool.crash_image p2) w))
        then ok := false;
        if Pool.is_dirty p1 w <> Pool.is_dirty p2 w then ok := false;
        if Pool.is_pending p1 w <> Pool.is_pending p2 w then ok := false
      done;
      if Pool.dirty_words p1 <> Pool.dirty_words p2 then ok := false;
      if Pool.pending_words p1 <> Pool.pending_words p2 then ok := false;
      !ok)

(* Property: whatever an op sequence left behind — dirty, pending,
   evicted, on an eADR pool or not — [boot img] is indistinguishable from
   [of_image img]: on the first boot (compare pass), on a second boot from
   the same image (journal rewind), and with a delta on top.  "The same"
   covers every word's value and metadata, the eADR setting, the crash
   image, an empty journal and pending index, and the [sfence] results of
   an identical follow-up op sequence. *)
let prop_boot_equals_of_image =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map2 (fun w v -> `Store (w, v)) (int_bound 63) (int_range 1 1000);
          map2 (fun w v -> `Movnt (w, v)) (int_bound 63) (int_range 1 1000);
          map (fun w -> `Clwb w) (int_bound 63);
          map (fun l -> `Evict l) (int_bound 7);
          return `Fence;
        ])
  in
  let ops = Gen.(list_size (int_range 0 40) op) in
  let delta = Gen.(list_size (int_range 0 6) (pair (int_bound 63) (int_range 1 1000))) in
  Test.make ~name:"pool: boot ≡ of_image (first boot, rewind, delta)" ~count:300
    (make Gen.(tup5 bool ops ops ops delta))
    (fun (eadr, ops_img, ops_before, ops_after, delta) ->
      (* The observable results of an op sequence: what every fence
         persisted and every eviction wrote back. *)
      let run p ops =
        List.filter_map
          (fun op ->
            match op with
            | `Store (w, v) ->
                Pool.store p ~tid:1 ~instr:2 w (Int64.of_int v);
                None
            | `Movnt (w, v) ->
                Pool.movnt p ~tid:1 ~instr:3 w (Int64.of_int v);
                None
            | `Clwb w ->
                Pool.clwb p w;
                None
            | `Evict l -> Some (Pool.evict_line p l)
            | `Fence -> Some (Pool.sfence p))
          ops
      in
      let same a b =
        let ok = ref (Pool.is_eadr a = Pool.is_eadr b) in
        let ia = Pool.crash_image a and ib = Pool.crash_image b in
        for w = 0 to 63 do
          if not (Int64.equal (Pool.peek a w) (Pool.peek b w)) then ok := false;
          if not (Int64.equal (Pool.image_word ia w) (Pool.image_word ib w)) then ok := false;
          if Pool.dirty_writer a w <> Pool.dirty_writer b w then ok := false;
          if Pool.is_pending a w <> Pool.is_pending b w then ok := false
        done;
        !ok
      in
      (* Booted vs reference, right after the boot and after an identical
         follow-up sequence. *)
      let agrees ~touched p reference =
        let now =
          same p reference && Pool.touched_words p = touched && Pool.pending_index_size p = 0
        in
        let follow_up = run p ops_after = run reference ops_after in
        now && follow_up && same p reference
      in
      let img =
        let q = Pool.create ~words:64 () in
        ignore (run q ops_img);
        Pool.crash_image q
      in
      let p = Pool.create ~eadr ~words:64 () in
      ignore (run p ops_before);
      Pool.boot p img;
      let first = agrees ~touched:0 p (Pool.of_image img) in
      Pool.boot p img;
      let rewind = agrees ~touched:0 p (Pool.of_image img) in
      (* A delta overrides words of the image; the last write to a word
         wins, as in the materialised image. *)
      let with_delta = Pool.image_copy img in
      List.iter (fun (w, v) -> Pool.image_set with_delta w (Int64.of_int v)) delta;
      let delta = List.map (fun (w, v) -> (w, Int64.of_int v)) delta in
      Pool.boot ~delta p img;
      let touched = List.length (List.sort_uniq compare (List.map fst delta)) in
      let delta_ok = agrees ~touched p (Pool.of_image with_delta) in
      first && rewind && delta_ok)

(* Property: after arbitrary (store | movnt | clwb | fence) sequences,
   crash + reboot never exposes a value that was never stored, and every
   fence-persisted word reads back its last pre-fence value. *)
let prop_crash_soundness =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map2 (fun w v -> `Store (w, v)) (int_bound 63) (int_range 1 1000);
          map2 (fun w v -> `Movnt (w, v)) (int_bound 63) (int_range 1 1000);
          map (fun w -> `Clwb w) (int_bound 63);
          return `Fence;
        ])
  in
  Test.make ~name:"pool: crash exposes only stored values"
    ~count:200
    (make Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let p = Pool.create ~words:64 () in
      let stored = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Store (w, v) ->
              Pool.store p ~tid:0 ~instr:0 w (Int64.of_int v);
              Hashtbl.replace stored w ()
          | `Movnt (w, v) ->
              Pool.movnt p ~tid:0 ~instr:0 w (Int64.of_int v);
              Hashtbl.replace stored w ()
          | `Clwb w -> Pool.clwb p w
          | `Fence -> ignore (Pool.sfence p))
        ops;
      let img = Pool.crash_image p in
      let ok = ref true in
      for w = 0 to 63 do
        if (not (Int64.equal (Pool.image_word img w) 0L)) && not (Hashtbl.mem stored w) then
          ok := false
      done;
      !ok)

(* Property: a durable word equals either its last stored value or an
   earlier one — never a mix of unrelated data. *)
let prop_durable_is_prefix =
  let open QCheck in
  Test.make ~name:"pool: durable value is some previously stored value" ~count:200
    (make Gen.(list_size (int_range 1 40) (pair (int_bound 15) (int_range 1 100))))
    (fun writes ->
      let p = Pool.create ~words:16 () in
      let history = Hashtbl.create 16 in
      List.iteri
        (fun i (w, v) ->
          Pool.store p ~tid:0 ~instr:0 w (Int64.of_int v);
          let prev = Option.value ~default:[] (Hashtbl.find_opt history w) in
          Hashtbl.replace history w (Int64.of_int v :: prev);
          if i mod 3 = 0 then begin
            Pool.clwb p w;
            ignore (Pool.sfence p)
          end)
        writes;
      let img = Pool.crash_image p in
      let ok = ref true in
      for w = 0 to 15 do
        let d = Pool.image_word img w in
        if not (Int64.equal d 0L) then begin
          let hist = Option.value ~default:[] (Hashtbl.find_opt history w) in
          if not (List.mem d hist) then ok := false
        end
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_invalid;
    Alcotest.test_case "store visible, not durable" `Quick test_store_visible_not_durable;
    Alcotest.test_case "flush + fence persists" `Quick test_flush_fence_persists;
    Alcotest.test_case "line-granular flush" `Quick test_line_granular_flush;
    Alcotest.test_case "store after clwb needs reflush" `Quick test_store_after_clwb_needs_reflush;
    Alcotest.test_case "non-temporal stores" `Quick test_movnt;
    Alcotest.test_case "dirty writer identity" `Quick test_dirty_writer;
    Alcotest.test_case "eviction persists silently" `Quick test_eviction;
    Alcotest.test_case "boot from crash image" `Quick test_of_image;
    Alcotest.test_case "checkpoint/boot" `Quick test_checkpoint_boot;
    Alcotest.test_case "quiesce" `Quick test_quiesce;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "durably-equal + pending" `Quick test_durably_equal_and_pending;
    Alcotest.test_case "image size" `Quick test_image_words;
    Alcotest.test_case "rewind resets writer seq" `Quick test_rewind_resets_seq;
    Alcotest.test_case "checkpoint requires quiesced pool" `Quick
      test_checkpoint_requires_quiesced;
    Alcotest.test_case "rewind is O(touched)" `Quick test_rewind_o_touched;
    Alcotest.test_case "eadr checkpoint round-trip" `Quick test_eadr_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint rewind ≡ full boot" `Quick
      test_checkpoint_rewind_equals_full_boot;
    Alcotest.test_case "boot a foreign checkpoint" `Quick test_boot_foreign_checkpoint;
    Alcotest.test_case "sfence is O(pending)" `Quick test_sfence_o_pending;
    Alcotest.test_case "pending index across epochs" `Quick test_pending_index_across_epochs;
    Alcotest.test_case "pending index: evict/store interleavings" `Quick
      test_pending_index_evict_store_interleaving;
    QCheck_alcotest.to_alcotest prop_sfence_equals_scan;
    QCheck_alcotest.to_alcotest prop_boot_equals_of_image;
    QCheck_alcotest.to_alcotest prop_checkpoint_rewind_equals_of_image;
    QCheck_alcotest.to_alcotest prop_crash_soundness;
    QCheck_alcotest.to_alcotest prop_durable_is_prefix;
  ]
