(* Functional correctness of the five PM systems (single-threaded
   semantics, resize/split/eviction paths, recovery), independent of bug
   detection. *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Seed = Pmrace.Seed

let fresh (target : Pmrace.Target.t) = Pmrace.Engine.checkout (Pmrace.Engine.create target)

(* Every target executes any well-formed op sequence single-threaded
   without raising, and recovers cleanly from a quiesced image. *)
let test_target_smoke (target : Pmrace.Target.t) () =
  let env = fresh target in
  let ctx = Env.ctx env ~tid:0 in
  let rng = Sched.Rng.create 17 in
  let seed = Seed.gen rng target.profile in
  List.iter (fun op -> target.run_op ctx op) (Seed.all_ops seed);
  Pmem.Pool.quiesce env.pool;
  let env2 = Env.of_image (Pmem.Pool.crash_image env.pool) in
  target.annotate env2;
  target.recover env2

let prop_target_any_ops (target : Pmrace.Target.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: arbitrary single-threaded op sequences are safe" target.name)
    ~count:30
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun s ->
      let env = fresh target in
      let ctx = Env.ctx env ~tid:0 in
      let rng = Sched.Rng.create s in
      let profile = { target.profile with Seed.ops_per_thread = 12 } in
      let seed = Seed.gen rng profile in
      (* A Stuck spin lock is acceptable for targets seeded with a
         lock-leak bug (P-CLHT's bug 5 self-deadlocks even
         single-threaded); any other exception is a real defect. *)
      (try List.iter (fun op -> target.run_op ctx op) (Seed.all_ops seed) with
      | Runtime.Mem.Stuck _
        when List.exists
               (fun (kb : Pmrace.Target.known_bug) ->
                 kb.kb_type = `Other && kb.kb_read_site = None)
               target.known_bugs ->
          ());
      true)

(* --- P-CLHT ---------------------------------------------------------- *)

let test_pclht_put_get () =
  let env = fresh Workloads.Pclht.target in
  let ctx = Env.ctx env ~tid:0 in
  Workloads.Pclht.put ctx 5 (Tval.of_int 500);
  Workloads.Pclht.put ctx 9 (Tval.of_int 900);
  (match Workloads.Pclht.get ctx 5 with
  | Some v -> Alcotest.(check int) "get 5" 500 (Tval.to_int v)
  | None -> Alcotest.fail "missing key 5");
  Alcotest.(check bool) "missing key" true (Workloads.Pclht.get ctx 12 = None);
  Workloads.Pclht.delete ctx 5;
  Alcotest.(check bool) "deleted" true (Workloads.Pclht.get ctx 5 = None)

let test_pclht_resize_preserves () =
  let env = fresh Workloads.Pclht.target in
  let ctx = Env.ctx env ~tid:0 in
  (* Enough same-bucket keys to force chains and a resize. *)
  for k = 0 to 31 do
    Workloads.Pclht.put ctx k (Tval.of_int (k * 10))
  done;
  for k = 0 to 31 do
    match Workloads.Pclht.get ctx k with
    | Some v -> Alcotest.(check int) (Printf.sprintf "key %d" k) (k * 10) (Tval.to_int v)
    | None -> Alcotest.failf "key %d lost (resize)" k
  done

let test_pclht_recovery_locks () =
  let env = fresh Workloads.Pclht.target in
  let ctx = Env.ctx env ~tid:0 in
  (* Hold the resize lock and a bucket lock, then crash. *)
  Mem.spin_lock ~persist_lock:true ctx ~instr:(Runtime.Instr.site "t:rl")
    (Tval.of_int (Pmdk.Layout.root_base + 1));
  let bucket_lock = Pmdk.Layout.heap_base + 8 in
  Mem.spin_lock ~persist_lock:true ctx ~instr:(Runtime.Instr.site "t:bl")
    (Tval.of_int bucket_lock);
  let env2 = Env.of_image (Pmem.Pool.crash_image env.pool) in
  Workloads.Pclht.target.annotate env2;
  Workloads.Pclht.target.recover env2;
  Alcotest.(check int64) "resize lock released by recovery" 0L
    (Pmem.Pool.peek env2.pool (Pmdk.Layout.root_base + 1));
  Alcotest.(check int64) "bucket lock NOT released (bug 2)" 1L
    (Pmem.Pool.peek env2.pool bucket_lock)

(* The bug 1 consequence, demonstrated end to end: an insert based on the
   unflushed table pointer is lost after crash recovery. *)
let test_pclht_bug1_data_loss () =
  let target = Workloads.Pclht.target in
  let rng = Sched.Rng.create 5 in
  let profile = { target.profile with Seed.supported = [ Seed.KPut ] } in
  let seed = Pmrace.Mutator.populate rng profile ~factor:3 in
  let engine = Pmrace.Engine.create ~use_checkpoint:false target in
  let rec hunt s =
    if s > 300 then Alcotest.fail "no bug-1 inconsistency within 300 schedules"
    else
      let entry =
        {
          Pmrace.Shared_queue.addr = Pmdk.Layout.root_base;
          loads = [ Runtime.Instr.site "clht_lb_res.c:417" ];
          stores = [ Runtime.Instr.site "clht_lb_res.c:785" ];
          hits = 1;
        }
      in
      let input =
        Pmrace.Campaign.input ~sched_seed:s
          ~policy:(Pmrace.Campaign.Pmrace { entry; skip = 0 })
          target seed
      in
      let r = Pmrace.Campaign.run ~engine input in
      let incs =
        List.filter
          (fun (i : Runtime.Checkers.inconsistency) ->
            Runtime.Instr.name i.source.Runtime.Candidates.write_instr = "clht_lb_res.c:785")
          (Runtime.Checkers.inconsistencies r.env.Env.checkers)
      in
      match incs with [] -> hunt (s + 1) | inc :: _ -> inc
  in
  let inc = hunt 1 in
  let image = Option.get (Pmem.Crash_images.image (Option.get inc.Runtime.Checkers.crash) 0) in
  (* After recovery from the crash image, the stale table pointer is in
     place: the durable side effect (the inserted item in the new table)
     is unreachable. *)
  let env2 = Env.of_image image in
  target.annotate env2;
  target.recover env2;
  let stale_ht = Pmem.Pool.peek env2.pool Pmdk.Layout.root_base in
  Alcotest.(check bool) "recovered table pointer is the old table" true
    (not (Int64.equal stale_ht 0L));
  (* The effect word lives outside the reachable (old) table's bucket
     array: data loss. *)
  Alcotest.(check bool) "side effect targeted the unreachable new table" true
    (inc.Runtime.Checkers.eff_addr > Int64.to_int stale_ht)

(* --- CCEH ------------------------------------------------------------ *)

let test_cceh_put_get () =
  let env = fresh Workloads.Cceh.target in
  let ctx = Env.ctx env ~tid:0 in
  Workloads.Cceh.put ctx 3 (Tval.of_int 30);
  Workloads.Cceh.put ctx 7 (Tval.of_int 70);
  (match Workloads.Cceh.get ctx 3 with
  | Some v -> Alcotest.(check int) "get" 30 (Tval.to_int v)
  | None -> Alcotest.fail "missing");
  Workloads.Cceh.delete ctx 3;
  Alcotest.(check bool) "deleted" true (Workloads.Cceh.get ctx 3 = None)

let test_cceh_expand_preserves () =
  let env = fresh Workloads.Cceh.target in
  let ctx = Env.ctx env ~tid:0 in
  for k = 0 to 19 do
    Workloads.Cceh.put ctx k (Tval.of_int (k + 100))
  done;
  let missing = ref [] in
  for k = 0 to 19 do
    match Workloads.Cceh.get ctx k with
    | Some v when Tval.to_int v = k + 100 -> ()
    | _ -> missing := k :: !missing
  done;
  Alcotest.(check (list int)) "no keys lost across expansion" [] !missing

(* --- FAST-FAIR ------------------------------------------------------- *)

let test_fastfair_insert_search () =
  let env = fresh Workloads.Fastfair.target in
  let ctx = Env.ctx env ~tid:0 in
  List.iter (fun k -> Workloads.Fastfair.insert ctx k (k * 2)) [ 5; 1; 9; 3; 7 ];
  (match Workloads.Fastfair.search ctx 3 with
  | Some v -> Alcotest.(check int) "search" 6 (Tval.to_int v)
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent key" true (Workloads.Fastfair.search ctx 4 = None)

let test_fastfair_split_preserves () =
  let env = fresh Workloads.Fastfair.target in
  let ctx = Env.ctx env ~tid:0 in
  for k = 0 to 30 do
    Workloads.Fastfair.insert ctx k k
  done;
  for k = 0 to 30 do
    match Workloads.Fastfair.search ctx k with
    | Some v -> Alcotest.(check int) (Printf.sprintf "key %d" k) k (Tval.to_int v)
    | None -> Alcotest.failf "key %d lost across splits" k
  done

let test_fastfair_scan () =
  let env = fresh Workloads.Fastfair.target in
  let ctx = Env.ctx env ~tid:0 in
  for k = 0 to 20 do
    Workloads.Fastfair.insert ctx k (k * 3)
  done;
  let vs = Workloads.Fastfair.scan ctx 5 16 in
  Alcotest.(check bool) "scan returns successors" true (List.length vs > 0);
  Alcotest.(check bool) "values beyond start key" true (List.for_all (fun v -> v > 15) vs)

let test_fastfair_delete () =
  let env = fresh Workloads.Fastfair.target in
  let ctx = Env.ctx env ~tid:0 in
  List.iter (fun k -> Workloads.Fastfair.insert ctx k k) [ 1; 2; 3 ];
  Workloads.Fastfair.delete ctx 2;
  Alcotest.(check bool) "deleted" true (Workloads.Fastfair.search ctx 2 = None);
  Alcotest.(check bool) "others intact" true (Workloads.Fastfair.search ctx 3 <> None)

let test_fastfair_recovery_fixes_nkeys () =
  let env = fresh Workloads.Fastfair.target in
  let ctx = Env.ctx env ~tid:0 in
  Workloads.Fastfair.insert ctx 1 10;
  Workloads.Fastfair.insert ctx 2 20;
  Pmem.Pool.quiesce env.pool;
  (* Corrupt nkeys in the durable image (simulating a lost counter). *)
  let head = Int64.to_int (Pmem.Pool.peek env.pool (Pmdk.Layout.root_base)) in
  Mem.store ctx ~instr:(Runtime.Instr.site "t:corrupt") (Tval.of_int (head + 1)) (Tval.of_int 7);
  Mem.persist ctx ~instr:(Runtime.Instr.site "t:corrupt") (Tval.of_int (head + 1));
  let env2 = Env.of_image (Pmem.Pool.crash_image env.pool) in
  Workloads.Fastfair.target.recover env2;
  Alcotest.(check int64) "nkeys recomputed from entries" 2L (Pmem.Pool.peek env2.pool (head + 1))

(* --- clevel ---------------------------------------------------------- *)

let test_clevel_put_get () =
  let env = fresh Workloads.Clevel.target in
  let ctx = Env.ctx env ~tid:0 in
  Workloads.Clevel.ensure_constructed ctx;
  Workloads.Clevel.put ctx 4 (Tval.of_int 44);
  match Workloads.Clevel.get ctx 4 with
  | Some v -> Alcotest.(check int) "get" 44 (Tval.to_int v)
  | None -> Alcotest.fail "missing"

let test_clevel_constructor_recovers () =
  (* Crash mid-construction: the transaction recovery reverts the root. *)
  let env = fresh Workloads.Clevel.target in
  let ctx = Env.ctx env ~tid:0 in
  Workloads.Clevel.ensure_constructed ctx;
  (* The root cons pointer is committed and durable after construction. *)
  Pmem.Pool.quiesce env.pool;
  let env2 = Env.of_image (Pmem.Pool.crash_image env.pool) in
  Workloads.Clevel.target.recover env2;
  Alcotest.(check bool) "constructed index survives" true
    (not (Int64.equal (Pmem.Pool.peek env2.pool Pmdk.Layout.root_base) 0L))

(* --- memcached-pmem -------------------------------------------------- *)

let mc_run ctx s = ignore (Workloads.Memcached.process_command ctx s)

let test_memcached_set_get () =
  let env = fresh Workloads.Memcached.target in
  let ctx = Env.ctx env ~tid:0 in
  mc_run ctx "set k1 0 0 3\r\nabc\r\n";
  mc_run ctx "get k1\r\n";
  mc_run ctx "delete k1\r\n";
  mc_run ctx "get k1\r\n";
  Alcotest.(check bool) "branch sites covered" true
    (Runtime.Candidates.dynamic_count
       (Runtime.Checkers.candidates env.Env.checkers)
    >= 0)

let test_memcached_recovery_rebuilds_index () =
  let env = fresh Workloads.Memcached.target in
  let ctx = Env.ctx env ~tid:0 in
  mc_run ctx "set k1 0 0 3\r\nabc\r\n";
  mc_run ctx "set k2 0 0 4\r\nwxyz\r\n";
  Pmem.Pool.quiesce env.pool;
  let env2 = Env.of_image (Pmem.Pool.crash_image env.pool) in
  Workloads.Memcached.target.recover env2;
  Alcotest.(check bool) "k1 reachable after rebuild" true
    (Workloads.Memcached.lookup_after_recovery env2 1 <> None);
  Alcotest.(check bool) "k2 reachable after rebuild" true
    (Workloads.Memcached.lookup_after_recovery env2 2 <> None);
  Alcotest.(check bool) "k3 absent" true
    (Workloads.Memcached.lookup_after_recovery env2 3 = None)

let test_memcached_eviction () =
  let env = fresh Workloads.Memcached.target in
  let ctx = Env.ctx env ~tid:0 in
  (* Exhaust a slab class: later sets must evict rather than fail. *)
  for k = 0 to 30 do
    mc_run ctx (Printf.sprintf "set k%d 0 0 3\r\nabc\r\n" k)
  done;
  mc_run ctx "get k30\r\n";
  Alcotest.(check bool) "survives arena exhaustion" true true

let test_memcached_incr () =
  let env = fresh Workloads.Memcached.target in
  let ctx = Env.ctx env ~tid:0 in
  mc_run ctx "set k1 0 0 3\r\nabc\r\n";
  mc_run ctx "incr k1 5\r\n";
  mc_run ctx "decr k1 2\r\n";
  Alcotest.(check bool) "delta ops run" true true

let suite =
  List.concat
    [
      List.map
        (fun (t : Pmrace.Target.t) ->
          Alcotest.test_case (t.name ^ ": smoke + recovery") `Quick (test_target_smoke t))
        Workloads.Registry.with_examples;
      List.map
        (fun (t : Pmrace.Target.t) -> QCheck_alcotest.to_alcotest (prop_target_any_ops t))
        Workloads.Registry.all;
      [
        Alcotest.test_case "p-clht: put/get/delete" `Quick test_pclht_put_get;
        Alcotest.test_case "p-clht: resize preserves items" `Quick test_pclht_resize_preserves;
        Alcotest.test_case "p-clht: recovery lock policy" `Quick test_pclht_recovery_locks;
        Alcotest.test_case "p-clht: bug 1 data loss end-to-end" `Quick test_pclht_bug1_data_loss;
        Alcotest.test_case "cceh: put/get/delete" `Quick test_cceh_put_get;
        Alcotest.test_case "cceh: expansion preserves items" `Quick test_cceh_expand_preserves;
        Alcotest.test_case "fast-fair: insert/search" `Quick test_fastfair_insert_search;
        Alcotest.test_case "fast-fair: splits preserve items" `Quick test_fastfair_split_preserves;
        Alcotest.test_case "fast-fair: scan" `Quick test_fastfair_scan;
        Alcotest.test_case "fast-fair: delete" `Quick test_fastfair_delete;
        Alcotest.test_case "fast-fair: recovery fixes nkeys" `Quick test_fastfair_recovery_fixes_nkeys;
        Alcotest.test_case "clevel: put/get" `Quick test_clevel_put_get;
        Alcotest.test_case "clevel: constructor recovery" `Quick test_clevel_constructor_recovers;
        Alcotest.test_case "memcached: commands" `Quick test_memcached_set_get;
        Alcotest.test_case "memcached: recovery rebuilds index" `Quick
          test_memcached_recovery_rebuilds_index;
        Alcotest.test_case "memcached: eviction" `Quick test_memcached_eviction;
        Alcotest.test_case "memcached: incr/decr" `Quick test_memcached_incr;
      ];
    ]
