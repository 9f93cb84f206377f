(* The PM-aware sync-point policy (Figure 6) and the delay baseline. *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Rng = Sched.Rng
module Scheduler = Sched.Scheduler
module Sync = Pmrace.Sync_policy

let i_w = Instr.site "pol:w"
let i_r = Instr.site "pol:r"
let i_e = Instr.site "pol:e"

let entry addr = { Pmrace.Shared_queue.addr; loads = [ i_r ]; stores = [ i_w ]; hits = 1 }

(* A writer that stores the shared word then flushes a few steps later, and
   a reader that reads it and makes a durable side effect: the sync policy
   must coordinate them into the inconsistency. *)
let run_pair ~policy ~sched_seed =
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env policy;
  let sched = Scheduler.create ~rng:(Rng.create sched_seed) () in
  ignore
    (Scheduler.spawn sched ~name:"writer" (fun () ->
         let ctx = Env.ctx env ~tid:0 in
         Mem.store ctx ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
         Mem.persist ctx ~instr:i_w (Tval.of_int 100)));
  ignore
    (Scheduler.spawn sched ~name:"reader" (fun () ->
         let ctx = Env.ctx env ~tid:1 in
         let v = Mem.load ctx ~instr:i_r (Tval.of_int 100) in
         Mem.store ctx ~instr:i_e (Tval.of_int 200) v;
         Mem.persist ctx ~instr:i_e (Tval.of_int 200)));
  let outcome = Scheduler.run sched in
  (env, outcome)

let test_sync_policy_triggers () =
  (* Across a handful of seeds, the sync policy must reliably produce the
     inter-thread inconsistency. *)
  let hits = ref 0 in
  for seed = 1 to 10 do
    let sp = Sync.create ~rng:(Rng.create seed) ~nthreads:2 ~skip:0 (entry 100) in
    let env, _ = run_pair ~policy:(Sync.policy sp) ~sched_seed:seed in
    if Runtime.Checkers.inconsistencies env.checkers <> [] then incr hits
  done;
  Alcotest.(check bool) "sync policy reliable (>=8/10)" true (!hits >= 8)

let test_sync_policy_beats_random () =
  let count policy_of =
    let hits = ref 0 in
    for seed = 1 to 20 do
      let env, _ = run_pair ~policy:(policy_of seed) ~sched_seed:seed in
      if Runtime.Checkers.inconsistencies env.checkers <> [] then incr hits
    done;
    !hits
  in
  let sync_hits =
    count (fun seed -> Sync.policy (Sync.create ~rng:(Rng.create seed) ~nthreads:2 ~skip:0 (entry 100)))
  in
  let random_hits = count (fun _ -> Env.preempt_policy) in
  Alcotest.(check bool)
    (Printf.sprintf "sync (%d) > random (%d)" sync_hits random_hits)
    true (sync_hits > random_hits)

let test_signal_state () =
  let sp = Sync.create ~rng:(Rng.create 1) ~nthreads:2 ~skip:0 (entry 100) in
  let _ = run_pair ~policy:(Sync.policy sp) ~sched_seed:1 in
  Alcotest.(check bool) "signalled" true (Sync.triggered sp)

let test_no_writer_disables () =
  (* Only readers: the sync point must give up rather than hang forever. *)
  let sp = Sync.create ~rng:(Rng.create 1) ~nthreads:2 ~skip:0 (entry 100) in
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env (Sync.policy sp);
  let sched = Scheduler.create ~rng:(Rng.create 1) () in
  for t = 0 to 1 do
    ignore
      (Scheduler.spawn sched ~name:"reader" (fun () ->
           let ctx = Env.ctx env ~tid:t in
           ignore (Mem.load ctx ~instr:i_r (Tval.of_int 100))))
  done;
  let o = Scheduler.run sched in
  Alcotest.(check bool) "completes despite no writer" true (Scheduler.completed o);
  Alcotest.(check bool) "not signalled" false (Sync.triggered sp)

let test_skip_mechanism () =
  (* With skip >= number of cond_wait executions, the reader never waits. *)
  let sp = Sync.create ~rng:(Rng.create 1) ~nthreads:2 ~skip:100 (entry 100) in
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env (Sync.policy sp);
  let sched = Scheduler.create ~step_budget:5_000 ~rng:(Rng.create 1) () in
  ignore
    (Scheduler.spawn sched ~name:"reader" (fun () ->
         let ctx = Env.ctx env ~tid:0 in
         ignore (Mem.load ctx ~instr:i_r (Tval.of_int 100))));
  let o = Scheduler.run sched in
  Alcotest.(check bool) "fast completion" true (o.steps < 100);
  Alcotest.(check int) "no waits executed" 0 (Sync.waits_executed sp)

let test_next_skip () =
  let sp = Sync.create ~rng:(Rng.create 1) ~nthreads:4 ~skip:0 (entry 100) in
  (* Nothing hung: skip unchanged. *)
  Alcotest.(check int) "no hang, same skip" 5 (Sync.next_skip sp ~previous:5)

(* Pitfall 2: when every worker blocks at the sync point, a privileged
   thread is elected and the execution completes. *)
let test_privileged_election () =
  let sp = Sync.create ~rng:(Rng.create 2) ~nthreads:2 ~skip:0 (entry 100) in
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env (Sync.policy sp);
  let sched = Scheduler.create ~step_budget:50_000 ~rng:(Rng.create 2) () in
  let loaded = ref 0 in
  for t = 0 to 1 do
    ignore
      (Scheduler.spawn sched ~name:"reader" (fun () ->
           let ctx = Env.ctx env ~tid:t in
           (* Both threads are pure readers of the sync address: all block,
              the election lets one through, the other times out. *)
           ignore (Mem.load ctx ~instr:i_r (Tval.of_int 100));
           incr loaded))
  done;
  let o = Scheduler.run sched in
  Alcotest.(check bool) "both eventually ran" true (!loaded = 2);
  Alcotest.(check bool) "completed" true (Scheduler.completed o)

(* Which footprints of the entry's word are sync points: one operation of
   one fiber under a fresh policy for the entry at word 100, reporting
   whether it reached cond_wait (a sync load) and whether it signalled (a
   sync store). *)
let sync_roles op =
  let sp = Sync.create ~rng:(Rng.create 1) ~nthreads:1 ~skip:0 (entry 100) in
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env (Sync.policy sp);
  let sched = Scheduler.create ~rng:(Rng.create 1) () in
  ignore (Scheduler.spawn sched ~name:"op" (fun () -> op (Env.ctx env ~tid:0)));
  ignore (Scheduler.run sched);
  (Sync.waits_executed sp > 0, Sync.triggered sp)

let test_sync_points () =
  let check label ~load ~store op =
    Alcotest.(check (pair bool bool)) label (load, store) (sync_roles op)
  in
  let at = Tval.of_int 100 and near = Tval.of_int 101 in
  check "load is a sync load" ~load:true ~store:false (fun ctx ->
      ignore (Mem.load ctx ~instr:i_r at));
  check "store is a sync store" ~load:false ~store:true (fun ctx ->
      Mem.store ctx ~instr:i_w at Tval.one);
  check "movnt is a sync store" ~load:false ~store:true (fun ctx ->
      Mem.movnt ctx ~instr:i_w at Tval.one);
  check "cas is both" ~load:true ~store:true (fun ctx ->
      ignore (Mem.cas ctx ~instr:i_w at ~expect:Tval.zero ~value:Tval.one));
  check "flush of the entry's line is neither" ~load:false ~store:false (fun ctx ->
      Mem.clwb ctx ~instr:i_w at;
      Mem.clwb ctx ~instr:i_w near);
  check "fence is neither" ~load:false ~store:false (fun ctx -> Mem.sfence ctx ~instr:i_w);
  check "another word of the line is neither" ~load:false ~store:false (fun ctx ->
      ignore (Mem.load ctx ~instr:i_r near);
      Mem.store ctx ~instr:i_w near Tval.one)

let test_delay_policy_inserts_delays () =
  let rng = Rng.create 1 in
  let dp = Pmrace.Delay_policy.create ~prob:1.0 ~max_delay:10 ~rng () in
  let env = Env.create ~pool_words:512 () in
  Env.set_policy env (Pmrace.Delay_policy.policy dp);
  let sched = Scheduler.create ~rng:(Rng.create 1) () in
  ignore
    (Scheduler.spawn sched ~name:"w" (fun () ->
         let ctx = Env.ctx env ~tid:0 in
         for i = 0 to 9 do
           Mem.store ctx ~instr:i_w (Tval.of_int (8 * i)) Tval.one
         done));
  let o = Scheduler.run sched in
  Alcotest.(check bool) "delays consumed steps" true (o.steps > 20)

let suite =
  [
    Alcotest.test_case "sync policy triggers inconsistencies" `Quick test_sync_policy_triggers;
    Alcotest.test_case "sync policy beats random" `Quick test_sync_policy_beats_random;
    Alcotest.test_case "signal state" `Quick test_signal_state;
    Alcotest.test_case "no writer: sync point disabled" `Quick test_no_writer_disables;
    Alcotest.test_case "skip mechanism" `Quick test_skip_mechanism;
    Alcotest.test_case "next_skip" `Quick test_next_skip;
    Alcotest.test_case "privileged-thread election" `Quick test_privileged_election;
    Alcotest.test_case "delay policy inserts delays" `Quick test_delay_policy_inserts_delays;
    Alcotest.test_case "sync points: footprints of the entry's word" `Quick test_sync_points;
  ]
