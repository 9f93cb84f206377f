(* Pool: the visibility/persistency gap, flush/fence pipeline, crash
   images, snapshots, eviction. *)

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

let test_snapshot_restore () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Pool.quiesce p;
  let snap = Pool.snapshot p in
  Pool.store p ~tid:0 ~instr:1 10 100L;
  Pool.store p ~tid:0 ~instr:1 50 1L;
  Pool.restore p snap;
  Alcotest.(check int64) "restored value" 7L (Pool.load p 10);
  Alcotest.(check int64) "other word restored" 0L (Pool.load p 50);
  Alcotest.(check (list int)) "no dirty words after restore" [] (Pool.dirty_words p)

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

let test_stats () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 0 1L;
  ignore (Pool.load p 0);
  Pool.movnt p ~tid:0 ~instr:1 8 1L;
  Pool.clwb p 0;
  ignore (Pool.sfence p);
  let s = Pool.stats p in
  Alcotest.(check int) "stores" 1 s.Pool.stores;
  Alcotest.(check int) "loads" 1 s.Pool.loads;
  Alcotest.(check int) "movnts" 1 s.Pool.movnts;
  Alcotest.(check int) "flushes" 1 s.Pool.flushes;
  Alcotest.(check int) "fences" 1 s.Pool.fences

(* Restore round-trip audit: nothing campaign-local may leak across a
   restore — not the access counters, not the store-sequence numbers that
   feed [dirty_writer], not pending write-backs. *)
let test_restore_resets_stats_and_seq () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Pool.quiesce p;
  let snap = Pool.snapshot p in
  let base = Pool.stats p in
  (* Campaign A: loads, stores, flushes, fences, plus a pending write-back
     left in flight on purpose. *)
  ignore (Pool.load p 10);
  Pool.store p ~tid:2 ~instr:9 20 1L;
  Pool.movnt p ~tid:2 ~instr:9 24 2L;
  Pool.clwb p 20;
  Pool.restore p snap;
  Alcotest.(check bool) "stats restored to snapshot" true (Pool.stats p = base);
  Alcotest.(check (list int)) "no pending write-backs survive" [] (Pool.pending_words p);
  (* Campaign B's first store must see the same sequence number campaign A's
     first store saw: writer identity is part of the checkers' input. *)
  Pool.store p ~tid:0 ~instr:1 30 1L;
  let seq_b =
    match Pool.dirty_writer p 30 with Some w -> w.Pool.seq | None -> Alcotest.fail "dirty"
  in
  Pool.restore p snap;
  Pool.store p ~tid:0 ~instr:1 40 1L;
  let seq_b' =
    match Pool.dirty_writer p 40 with Some w -> w.Pool.seq | None -> Alcotest.fail "dirty"
  in
  Alcotest.(check int) "writer seq identical across restores" seq_b seq_b'

let test_snapshot_requires_quiesced () =
  let p = mk () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Alcotest.check_raises "dirty pool rejected"
    (Invalid_argument "Pool.snapshot: pool not quiesced (dirty or pending words)") (fun () ->
      ignore (Pool.snapshot p));
  Pool.clwb p 10;
  Alcotest.check_raises "pending pool rejected"
    (Invalid_argument "Pool.snapshot: pool not quiesced (dirty or pending words)") (fun () ->
      ignore (Pool.snapshot p));
  ignore (Pool.sfence p);
  ignore (Pool.snapshot p)

let test_reset_to_snapshot_o_touched () =
  let p = Pool.create ~words:4096 () in
  Pool.store p ~tid:0 ~instr:1 100 7L;
  Pool.quiesce p;
  let snap = Pool.snapshot p in
  Alcotest.(check int) "journal empty at baseline" 0 (Pool.touched_words p);
  (* A campaign touching 3 words out of 4096. *)
  Pool.store p ~tid:1 ~instr:2 100 1L;
  Pool.store p ~tid:1 ~instr:2 200 2L;
  Pool.movnt p ~tid:1 ~instr:2 300 3L;
  Pool.store p ~tid:1 ~instr:2 100 4L (* re-touch: journaled once *);
  ignore (Pool.sfence p);
  Alcotest.(check int) "journal records touched words once" 3 (Pool.touched_words p);
  Pool.reset_to_snapshot p snap;
  Alcotest.(check int) "journal empty after reset" 0 (Pool.touched_words p);
  Alcotest.(check int64) "touched word restored" 7L (Pool.load p 100);
  Alcotest.(check int64) "movnt'd word restored" 0L (Pool.load p 300);
  Alcotest.(check (list int)) "no dirty words" [] (Pool.dirty_words p);
  Alcotest.(check (list int)) "no pending words" [] (Pool.pending_words p)

let test_reset_to_snapshot_equals_restore () =
  (* Same campaign replayed twice — once undone by O(pool) restore, once by
     O(touched) reset — must leave bit-identical pools. *)
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
  let s1 = Pool.snapshot p1 and s2 = Pool.snapshot p2 in
  campaign p1;
  campaign p2;
  Pool.restore p1 s1;
  Pool.reset_to_snapshot p2 s2;
  for w = 0 to Pool.size p1 - 1 do
    if not (Int64.equal (Pool.peek p1 w) (Pool.peek p2 w)) then
      Alcotest.failf "volatile image differs at word %d" w;
    if
      not
        (Int64.equal
           (Pool.image_word (Pool.crash_image p1) w)
           (Pool.image_word (Pool.crash_image p2) w))
    then Alcotest.failf "durable image differs at word %d" w
  done;
  Alcotest.(check bool) "stats identical" true (Pool.stats p1 = Pool.stats p2)

let test_reset_to_snapshot_wrong_baseline () =
  let p = mk () and q = mk () in
  Pool.quiesce p;
  Pool.quiesce q;
  let sp = Pool.snapshot p in
  let sq = Pool.snapshot q in
  Alcotest.check_raises "foreign snapshot rejected"
    (Invalid_argument
       "Pool.reset_to_snapshot: snapshot is not this pool's baseline (use restore first)")
    (fun () -> Pool.reset_to_snapshot p sq);
  (* restore re-establishes the baseline, after which reset works. *)
  Pool.restore p sq;
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.reset_to_snapshot p sq;
  Alcotest.(check int64) "reset after restore works" 0L (Pool.load p 10);
  Alcotest.check_raises "old baseline now stale"
    (Invalid_argument
       "Pool.reset_to_snapshot: snapshot is not this pool's baseline (use restore first)")
    (fun () -> Pool.reset_to_snapshot p sp)

let test_eadr_snapshot_roundtrip () =
  (* eADR pools have no writer metadata at all; the snapshot round-trip must
     still reset images and counters. *)
  let p = Pool.create ~eadr:true ~words:256 () in
  Pool.store p ~tid:0 ~instr:1 10 7L;
  Alcotest.(check bool) "eadr store never dirty" false (Pool.is_dirty p 10);
  Pool.quiesce p;
  let snap = Pool.snapshot p in
  let base = Pool.stats p in
  Pool.store p ~tid:1 ~instr:2 10 100L;
  Pool.store p ~tid:1 ~instr:2 50 1L;
  Alcotest.(check int) "eadr stores journaled" 2 (Pool.touched_words p);
  Pool.reset_to_snapshot p snap;
  Alcotest.(check int64) "volatile restored" 7L (Pool.load p 10);
  ignore (Pool.load p 10) (* undo the load we just counted *);
  Pool.restore p snap;
  Alcotest.(check int64) "durable restored" 7L (Pool.image_word (Pool.crash_image p) 10);
  Alcotest.(check int64) "other word durable-restored" 0L
    (Pool.image_word (Pool.crash_image p) 50);
  Alcotest.(check bool) "stats restored" true (Pool.stats p = base)

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

(* Pending index across epoch bumps: reset_to_snapshot after a partial
   fence must leave nothing pending, drop the in-flight write-backs, and
   keep later flush/fence rounds working. *)
let test_pending_index_across_epochs () =
  let p = mk () in
  Pool.quiesce p;
  let snap = Pool.snapshot p in
  (* Partial fence: persist one line, leave another in flight. *)
  Pool.store p ~tid:0 ~instr:1 10 1L;
  Pool.clwb p 10;
  ignore (Pool.sfence p);
  Pool.store p ~tid:0 ~instr:1 20 2L;
  Pool.clwb p 20;
  Pool.movnt p ~tid:0 ~instr:1 30 3L;
  Alcotest.(check int) "clwb'd + movnt'd words in flight" 2 (Pool.pending_index_size p);
  Pool.reset_to_snapshot p snap;
  Alcotest.(check int) "epoch bump empties the index" 0 (Pool.pending_index_size p);
  Alcotest.(check (list int)) "nothing pending after reset" [] (Pool.pending_words p);
  Alcotest.(check (list int)) "post-reset fence persists nothing" [] (Pool.sfence p);
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

(* Property: after an arbitrary op sequence from a snapshotted baseline,
   reset_to_snapshot and restore agree bit-for-bit, and the journal never
   under-counts (every differing word is journaled). *)
let prop_reset_equals_restore =
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
  Test.make ~name:"pool: reset_to_snapshot ≡ restore" ~count:200
    (make Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let run p =
        List.iter
          (fun op ->
            match op with
            | `Store (w, v) -> Pool.store p ~tid:0 ~instr:0 w (Int64.of_int v)
            | `Movnt (w, v) -> Pool.movnt p ~tid:0 ~instr:0 w (Int64.of_int v)
            | `Clwb w -> Pool.clwb p w
            | `Evict l -> ignore (Pool.evict_line p l)
            | `Fence -> ignore (Pool.sfence p))
          ops
      in
      let p1 = Pool.create ~words:64 () and p2 = Pool.create ~words:64 () in
      Pool.store p1 ~tid:0 ~instr:0 0 9L;
      Pool.store p2 ~tid:0 ~instr:0 0 9L;
      Pool.quiesce p1;
      Pool.quiesce p2;
      let s1 = Pool.snapshot p1 and s2 = Pool.snapshot p2 in
      run p1;
      run p2;
      Pool.restore p1 s1;
      Pool.reset_to_snapshot p2 s2;
      let ok = ref (Pool.stats p1 = Pool.stats p2) in
      for w = 0 to 63 do
        if not (Int64.equal (Pool.peek p1 w) (Pool.peek p2 w)) then ok := false;
        if
          not
            (Int64.equal
               (Pool.image_word (Pool.crash_image p1) w)
               (Pool.image_word (Pool.crash_image p2) w))
        then ok := false
      done;
      !ok)

(* Property: whatever an op sequence left behind — dirty, pending,
   evicted, on an eADR pool or not — [boot img] is indistinguishable from
   [of_image img]: on the first boot (compare pass), on a second boot from
   the same image (journal rewind), and with a delta on top.  "The same"
   covers every word's value and metadata, the statistics, the crash
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
        let ok = ref (Pool.stats a = Pool.stats b && Pool.is_eadr a = Pool.is_eadr b) in
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
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "quiesce" `Quick test_quiesce;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "durably-equal + pending" `Quick test_durably_equal_and_pending;
    Alcotest.test_case "image size" `Quick test_image_words;
    Alcotest.test_case "restore resets stats + seq" `Quick test_restore_resets_stats_and_seq;
    Alcotest.test_case "snapshot requires quiesced pool" `Quick test_snapshot_requires_quiesced;
    Alcotest.test_case "reset_to_snapshot is O(touched)" `Quick test_reset_to_snapshot_o_touched;
    Alcotest.test_case "reset_to_snapshot ≡ restore" `Quick test_reset_to_snapshot_equals_restore;
    Alcotest.test_case "reset_to_snapshot baseline guard" `Quick
      test_reset_to_snapshot_wrong_baseline;
    Alcotest.test_case "eadr snapshot round-trip" `Quick test_eadr_snapshot_roundtrip;
    Alcotest.test_case "sfence is O(pending)" `Quick test_sfence_o_pending;
    Alcotest.test_case "pending index across epochs" `Quick test_pending_index_across_epochs;
    Alcotest.test_case "pending index: evict/store interleavings" `Quick
      test_pending_index_evict_store_interleaving;
    QCheck_alcotest.to_alcotest prop_sfence_equals_scan;
    QCheck_alcotest.to_alcotest prop_reset_equals_restore;
    QCheck_alcotest.to_alcotest prop_boot_equals_of_image;
    QCheck_alcotest.to_alcotest prop_crash_soundness;
    QCheck_alcotest.to_alcotest prop_durable_is_prefix;
  ]
