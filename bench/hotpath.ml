(* Hot-path microbenches (PR 5): before/after numbers for the three
   accidentally-quadratic inner loops the simulation core used to run on
   every instrumented operation —

   - scheduler steps/sec: the maintained runnable-index loop
     ([Scheduler.run]) against the legacy rebuild-and-filter loop kept as
     [Scheduler.run_reference], at 1/2/8/32 fibers, with the share of
     picks that re-pick the fiber that just yielded (with one fiber,
     every pick: the steps [run] takes without switching fibers);
   - writer stall steps/sec: fibers that stall like the sync policy's
     signalling writer ([yield_n 400]) against the same stall written as
     400 yields, both under [Scheduler.run];
   - sfence cost: the O(pending) indexed fence ([Pool.sfence]) against the
     legacy O(pool) full scan kept as [Pool.sfence_scan], on 1k/8k/64k-word
     pools with a sparse (16-word) pending set;
   - line ops: the allocation-free [Cacheline.fold_line] walk against the
     legacy [words_of_line_containing] list materialisation, plus the
     absolute store×8+clwb+sfence pipeline throughput;
   - the hook and checker layers, in ns per instrumented operation (no
     legacy side): bare and listened hooks, a tainted load as the label
     set grows, and a tainted store plus persist as pending effects pile
     up;
   - the hub layer: one p-clht campaign's [Hub.commit] when every fact is
     already in the hub against when every fact is new.

   Both sides of each pair run the identical workload — the legacy
   implementations are executable specifications living next to the
   optimised code, not emulations — so the speedup column is pure hot-path
   delta.  Every row is the best of [reps] repetitions on fresh state:
   host noise only ever adds time, and a single timing of one row swings
   up to 1.8x between runs.  Writes BENCH_hotpath.json (gitignored; CI
   uploads it). *)

module Pool = Pmem.Pool
module Cacheline = Pmem.Cacheline
module Rng = Sched.Rng
module Scheduler = Sched.Scheduler

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

let reps = 7

(* The highest of [reps] rates, each [f ()] a run on fresh state. *)
let best_rate f =
  let best = ref 0. in
  for _ = 1 to reps do
    best := Float.max !best (f ())
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Scheduler: steps/sec on yield-spinning fibers that exhaust a fixed
   budget, so both loops take exactly [budget] scheduling decisions.  At
   60k steps a repetition lasted about 1 ms and a slow phase of the host
   outlasted all seven; 3M steps make each one tens of milliseconds.  On
   a shared 2-vCPU container the 8- and 32-fiber rows then agree within
   7% across runs of one binary, while the one-fiber row still reads
   42-69 M steps/s. *)

let sched_budget = 3_000_000

let spinners ~fibers =
  let s = Scheduler.create ~step_budget:sched_budget ~rng:(Rng.create 11) () in
  for _ = 1 to fibers do
    ignore
      (Scheduler.spawn s ~name:"spin" (fun () ->
           while true do
             Scheduler.yield ()
           done))
  done;
  s

let sched_steps_per_sec ~fibers runner =
  let s = spinners ~fibers in
  let t0 = Obs.Clock.now () in
  let o = runner s in
  let wall = Obs.Clock.elapsed t0 in
  float_of_int o.Scheduler.steps /. Float.max 1e-9 wall

(* Share of picks that re-pick the fiber that ran the step before, from
   an untimed run of the same schedule. *)
let self_pick_share ~fibers =
  let last = ref (-1) and self = ref 0 in
  let o =
    Scheduler.run
      ~on_step:(fun tid ->
        if tid = !last then incr self;
        last := tid)
      (spinners ~fibers)
  in
  float_of_int !self /. float_of_int (max 1 o.Scheduler.steps)

let sched_rows () =
  List.map
    (fun fibers ->
      let legacy =
        best_rate (fun () -> sched_steps_per_sec ~fibers (fun s -> Scheduler.run_reference s))
      in
      let fast = best_rate (fun () -> sched_steps_per_sec ~fibers (fun s -> Scheduler.run s)) in
      (fibers, legacy, fast, self_pick_share ~fibers))
    [ 1; 2; 8; 32 ]

(* Writer stall: every fiber loops [yield (); yield_n 400], the shape of
   [Sync_policy.cond_signal]'s stall after a signalling store.  The legacy
   column runs the stall as the 400-yield loop it is specified as, which
   pays an effect round trip whenever a pick moves to or from a stalled
   fiber; [yield_n] charges such picks without resuming the fiber.  Both
   take the same [sched_budget] decisions with the same RNG stream. *)

let stall_steps = 400

let stallers ~fibers ~expand =
  let s = Scheduler.create ~step_budget:sched_budget ~rng:(Rng.create 11) () in
  for _ = 1 to fibers do
    ignore
      (Scheduler.spawn s ~name:"writer" (fun () ->
           while true do
             Scheduler.yield ();
             if expand then
               for _ = 1 to stall_steps do
                 Scheduler.yield ()
               done
             else Scheduler.yield_n stall_steps
           done))
  done;
  s

let stall_steps_per_sec ~fibers ~expand =
  let s = stallers ~fibers ~expand in
  let t0 = Obs.Clock.now () in
  let o = Scheduler.run s in
  let wall = Obs.Clock.elapsed t0 in
  float_of_int o.Scheduler.steps /. Float.max 1e-9 wall

let stall_rows () =
  List.map
    (fun fibers ->
      let legacy = best_rate (fun () -> stall_steps_per_sec ~fibers ~expand:true) in
      let fast = best_rate (fun () -> stall_steps_per_sec ~fibers ~expand:false) in
      (fibers, legacy, fast))
    [ 1; 2; 8; 32 ]

(* ------------------------------------------------------------------ *)
(* SFENCE: [rounds] iterations of (dirty + flush a sparse word set; fence)
   so every fence drains the same 16-word pending set — the legacy side
   still scans the whole pool per fence. *)

let sfence_pending = 16
let sfence_rounds = 3_000

let sfence_fences_per_sec ~words fence =
  let p = Pool.create ~words () in
  let pending = sfence_pending and rounds = sfence_rounds in
  let stride = words / pending in
  let t0 = Obs.Clock.now () in
  for _ = 1 to rounds do
    for k = 0 to pending - 1 do
      let w = k * stride in
      Pool.store p ~tid:0 ~instr:0 w 1L;
      Pool.clwb p w
    done;
    ignore (fence p)
  done;
  let wall = Obs.Clock.elapsed t0 in
  float_of_int rounds /. Float.max 1e-9 wall

let sfence_rows () =
  List.map
    (fun words ->
      let legacy = best_rate (fun () -> sfence_fences_per_sec ~words Pool.sfence_scan) in
      let fast = best_rate (fun () -> sfence_fences_per_sec ~words Pool.sfence) in
      (words, legacy, fast))
    [ 1_024; 8_192; 65_536 ]

(* ------------------------------------------------------------------ *)
(* Line ops: count the dirty words of a line (the per-CLWB bookkeeping of
   Runtime.Mem.clwb) via the legacy list vs the allocation-free fold, then
   the absolute flush pipeline throughput for context. *)

let line_fold_ops_per_sec ~legacy =
  let p = Pool.create ~words:65_536 () in
  for w = 0 to 4_095 do
    if w land 1 = 0 then Pool.store p ~tid:0 ~instr:0 w 1L
  done;
  let iters = 300_000 in
  let acc = ref 0 in
  let t0 = Obs.Clock.now () in
  for i = 0 to iters - 1 do
    let a = (i * 61) land 4_095 in
    if legacy then
      acc :=
        !acc
        + List.fold_left
            (fun n w -> if Pool.is_dirty p w then n + 1 else n)
            0
            (Cacheline.words_of_line_containing a)
    else acc := !acc + Cacheline.fold_line (fun n w -> if Pool.is_dirty p w then n + 1 else n) 0 a
  done;
  let wall = Obs.Clock.elapsed t0 in
  ignore (Sys.opaque_identity !acc);
  float_of_int iters /. Float.max 1e-9 wall

let clwb_pipeline_ops_per_sec () =
  let p = Pool.create ~words:65_536 () in
  let iters = 50_000 in
  let t0 = Obs.Clock.now () in
  for i = 0 to iters - 1 do
    let base = (i * Cacheline.words_per_line) land 65_535 in
    for k = 0 to Cacheline.words_per_line - 1 do
      Pool.store p ~tid:0 ~instr:0 (base + k) (Int64.of_int i)
    done;
    Pool.clwb p base;
    ignore (Pool.sfence p)
  done;
  let wall = Obs.Clock.elapsed t0 in
  float_of_int iters /. Float.max 1e-9 wall

(* ------------------------------------------------------------------ *)
(* The hook layer: ns per instrumented operation, with nothing else in
   the loop — no scheduler (null policy), two alternating threads over
   512 lines of a 4k-word pool.  Measured bare (the init and recovery
   path: no listener, so no event is built), with the fuzz worker's
   bound listener set (its one coverage recorder, feeding the delta's
   alias map, branch and queue coverage and a seed-site set), and bare
   under [Por.wrap] of the null policy (POR's per-operation hook cost:
   pending and executed footprints, the trace digest).  Each row is the
   fastest of [reps] repetitions.  perfbench cannot split this layer out
   of a campaign, so this is its own number. *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval

let hook_iters = 100_000

let hook_ns_per_op ?(listeners = false) ?(por = false) op =
  let env = Env.create ~pool_words:4096 () in
  if listeners then begin
    let delta = Pmrace.Hub.fresh_delta () in
    let sites = ref (Pmrace.Site_set.create ()) in
    Env.add_listener env (Pmrace.Hub.recorder delta ~sites:(Some sites))
  end;
  let harness = if por then Some (Pmrace.Por.create ~pool_words:4096 ~nthreads:2 ()) else None in
  Option.iter (fun h -> Env.set_policy env (Pmrace.Por.wrap h Env.null_policy)) harness;
  let ctxs = [| Env.ctx env ~tid:0; Env.ctx env ~tid:1 |] in
  (* An existing site: registering one here would shift the site ids of
     sections that run after this one. *)
  let instr = Runtime.Instr.of_int 0 in
  let addrs = Array.init 512 (fun k -> Tval.of_int (k * Cacheline.words_per_line)) in
  let run n =
    for i = 0 to n - 1 do
      op env ctxs.(i land 1) instr addrs.(i land 511)
    done
  in
  run 4096;
  (* Host noise only ever adds time: report the fastest repetition. *)
  let best = ref infinity in
  for _ = 1 to reps do
    (* Fresh digest state, as each POR campaign starts with. *)
    Option.iter Pmrace.Por.reset harness;
    let t0 = Obs.Clock.now () in
    run hook_iters;
    best := Float.min !best (Obs.Clock.elapsed t0)
  done;
  1e9 *. !best /. float_of_int hook_iters

(* Each op keeps the pool in a steady state: loads read clean words,
   stores re-dirty the same words, the cas publishes non-temporally (no
   dirty word, no candidate) and the persist flushes a line one raw store
   dirtied. *)
let hook_ops =
  [
    ("load", fun _ ctx instr a -> ignore (Mem.load ctx ~instr a));
    ("store", fun _ ctx instr a -> Mem.store ctx ~instr a Tval.one);
    ( "cas",
      fun _ ctx instr a ->
        ignore (Mem.cas ~nt:true ctx ~instr a ~expect:Tval.zero ~value:Tval.zero) );
    ( "persist",
      fun env ctx instr a ->
        Pool.store env.Env.pool ~tid:0 ~instr:0 (Tval.to_int a) 1L;
        Mem.persist ctx ~instr a );
  ]

let hook_rows () =
  List.map
    (fun (name, op) ->
      (name, hook_ns_per_op op, hook_ns_per_op ~listeners:true op, hook_ns_per_op ~por:true op))
    hook_ops

(* The hub layer: microseconds per [Hub.commit] of one p-clht campaign.
   The campaign runs once with the worker's recorder bound, which gives a
   delta and a result of real size.  "all known" commits them to a hub
   that already holds every fact, so the merge finds nothing new; "all
   new" commits them to a fresh hub each time, so every fact is new.
   Only the commits are timed, hub creation is not; the fastest of
   [reps] repetitions is reported. *)

let commit_rounds = 100

let hub_commit_row () =
  let target = Option.get (Workloads.Registry.find "p-clht") in
  let delta = Pmrace.Hub.fresh_delta () in
  let engine = Pmrace.Engine.create ~bound:[| Pmrace.Hub.recorder delta ~sites:None |] target in
  let seed = Pmrace.Mutator.populate (Rng.create 5) target.Pmrace.Target.profile ~factor:3 in
  let input =
    Pmrace.Campaign.input ~sched_seed:1 ~policy:Pmrace.Campaign.Random_sched target seed
  in
  let result = Pmrace.Campaign.run ~engine input in
  let commit hub =
    ignore (Pmrace.Hub.commit hub ~campaign:0 ~seed ~delta ~invariants:[] result)
  in
  let fresh () = Pmrace.Hub.create ~max_campaigns:1 () in
  let us_per_commit hubs =
    let best = ref infinity in
    for _ = 1 to reps do
      let hubs = hubs () in
      let t0 = Obs.Clock.now () in
      Array.iter commit hubs;
      best := Float.min !best (Obs.Clock.elapsed t0)
    done;
    1e6 *. !best /. float_of_int commit_rounds
  in
  let known = fresh () in
  commit known;
  let known_us = us_per_commit (fun () -> Array.make commit_rounds known) in
  let new_us = us_per_commit (fun () -> Array.init commit_rounds (fun _ -> fresh ())) in
  ( Pmrace.Shared_queue.tracked_addresses delta.Pmrace.Hub.d_queue,
    Pmrace.Alias_cov.count delta.Pmrace.Hub.d_alias,
    known_us,
    new_us )

(* The checker layer: ns per tainted operation as the label sets and the
   pending side effects grow.  A tainted load of a dirty word whose shadow
   carries [n] labels registers a candidate and adds its label, the
   largest, to the set.  A tainted store plus persist (clwb, sfence) of one
   word supersedes and then confirms its own pending effect while [p]
   other effects, on words never flushed, stay pending.  Each repetition
   runs on a new environment, so candidates do not pile up; the fastest of
   [reps] is reported. *)

let ck_iters = 20_000

let checker_ns_per_op ~setup ~op =
  let instr = Runtime.Instr.of_int 0 in
  let best = ref infinity in
  for _ = 1 to reps do
    let env = Env.create ~pool_words:4096 () in
    let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
    let arg = setup env c0 c1 instr in
    let t0 = Obs.Clock.now () in
    for i = 0 to ck_iters - 1 do
      op c1 instr arg i
    done;
    best := Float.min !best (Obs.Clock.elapsed t0)
  done;
  1e9 *. !best /. float_of_int ck_iters

(* Source words for the labels sit in lines 0-63, the loaded words in
   lines 64-127: every label stays live. *)
let tainted_load_ns ~labels =
  checker_ns_per_op
    ~setup:(fun env c0 c1 instr ->
      let taint = ref Runtime.Taint.empty in
      for k = 0 to labels - 1 do
        let w = Tval.of_int k in
        Mem.store c0 ~instr w Tval.one;
        taint := Runtime.Taint.union !taint (Tval.taint (Mem.load c1 ~instr w))
      done;
      let addrs = Array.init 512 (fun k -> Tval.of_int (512 + k)) in
      Array.iter
        (fun a ->
          Mem.store c0 ~instr a Tval.one;
          Env.set_mem_taint env (Tval.to_int a) !taint)
        addrs;
      addrs)
    ~op:(fun ctx instr addrs i -> ignore (Mem.load ctx ~instr addrs.(i land 511)))

(* One live source word (0); [pending] effects on words 64.. (never
   flushed); the measured word is 4000, on a line of its own. *)
let tainted_persist_ns ~pending =
  checker_ns_per_op
    ~setup:(fun _ c0 c1 instr ->
      Mem.store c0 ~instr Tval.zero Tval.one;
      let v = Mem.load c1 ~instr Tval.zero in
      for k = 0 to pending - 1 do
        Mem.store c1 ~instr (Tval.of_int (64 + k)) v
      done;
      (Tval.of_int 4000, v))
    ~op:(fun ctx instr (a, v) _ ->
      Mem.store ctx ~instr a v;
      Mem.persist ctx ~instr a)

let checker_rows () =
  List.map (fun n -> ("tainted load", "labels", n, tainted_load_ns ~labels:n)) [ 1; 16; 255 ]
  @ List.map
      (fun p -> ("tainted store+persist", "pending", p, tainted_persist_ns ~pending:p))
      [ 1; 40; 400 ]

(* ------------------------------------------------------------------ *)

let speedup fast legacy = fast /. Float.max 1e-9 legacy

let run ppf =
  Format.fprintf ppf
    "@.Hot path: per-step / per-op cost of the simulation core, before vs after.@.";
  hr ppf;
  Format.fprintf ppf "%-34s %14s %14s %9s@." "microbench" "legacy (/s)" "new (/s)" "speedup";
  hr ppf;
  let sched = sched_rows () in
  List.iter
    (fun (fibers, legacy, fast, self) ->
      Format.fprintf ppf "%-34s %14.0f %14.0f %8.2fx@."
        (Printf.sprintf "sched steps (%d fiber%s, %.0f%% self)" fibers
           (if fibers = 1 then "" else "s")
           (100. *. self))
        legacy fast (speedup fast legacy))
    sched;
  let stall = stall_rows () in
  List.iter
    (fun (fibers, legacy, fast) ->
      Format.fprintf ppf "%-34s %14.0f %14.0f %8.2fx@."
        (Printf.sprintf "writer stall (%d fiber%s, %d steps)" fibers
           (if fibers = 1 then "" else "s")
           stall_steps)
        legacy fast (speedup fast legacy))
    stall;
  let sfence = sfence_rows () in
  List.iter
    (fun (words, legacy, fast) ->
      Format.fprintf ppf "%-34s %14.0f %14.0f %8.2fx@."
        (Printf.sprintf "sfence (%dk words, %d pending)" (words / 1024) sfence_pending)
        legacy fast (speedup fast legacy))
    sfence;
  let fold_legacy = best_rate (fun () -> line_fold_ops_per_sec ~legacy:true) in
  let fold_fast = best_rate (fun () -> line_fold_ops_per_sec ~legacy:false) in
  Format.fprintf ppf "%-34s %14.0f %14.0f %8.2fx@." "clwb line walk (dirty count)" fold_legacy
    fold_fast (speedup fold_fast fold_legacy);
  let pipeline = best_rate clwb_pipeline_ops_per_sec in
  Format.fprintf ppf "%-34s %14s %14.0f %9s@." "store*8+clwb+sfence pipeline" "-" pipeline "-";
  hr ppf;
  let hooks = hook_rows () in
  Format.fprintf ppf "%-34s %14s %14s %14s@." "instrumented op (ns/op)" "no listener" "worker set"
    "POR-wrapped";
  List.iter
    (fun (name, bare, listened, por) ->
      Format.fprintf ppf "%-34s %14.1f %14.1f %14.1f@."
        ("hook " ^ name ^ " (null policy)")
        bare listened por)
    hooks;
  hr ppf;
  let addrs, bits, known_us, new_us = hub_commit_row () in
  Format.fprintf ppf "%-34s %14s %14s@." "hub commit (us/commit)" "all known" "all new";
  Format.fprintf ppf "%-34s %14.1f %14.1f@."
    (Printf.sprintf "p-clht campaign (%d addrs, %d bits)" addrs bits)
    known_us new_us;
  hr ppf;
  let checkers = checker_rows () in
  Format.fprintf ppf "%-34s %14s@." "checker op (ns/op, no listener)" "ns/op";
  List.iter
    (fun (op, what, n, ns) ->
      Format.fprintf ppf "%-34s %14.1f@." (Printf.sprintf "%s (%d %s)" op n what) ns)
    checkers;
  hr ppf;
  Format.fprintf ppf
    "(legacy = run_reference / sfence_scan / words-of-line list: the quadratic@.";
  Format.fprintf ppf
    " loops kept as executable specifications; same workloads, same RNG streams.@.";
  Format.fprintf ppf " The writer stall's legacy column is the stall as a loop of yields.)@.";
  let json =
    Obs.Json.Obj
      [
        ( "sched",
          Obs.Json.List
            (List.map
               (fun (fibers, legacy, fast, self) ->
                 Obs.Json.Obj
                   [
                     ("fibers", Obs.Json.Int fibers);
                     ("budget_steps", Obs.Json.Int sched_budget);
                     ("repetitions", Obs.Json.Int reps);
                     ("legacy_steps_per_sec", Obs.Json.Float legacy);
                     ("steps_per_sec", Obs.Json.Float fast);
                     ("speedup", Obs.Json.Float (speedup fast legacy));
                     ("self_pick_share", Obs.Json.Float self);
                   ])
               sched) );
        ( "stall",
          Obs.Json.List
            (List.map
               (fun (fibers, legacy, fast) ->
                 Obs.Json.Obj
                   [
                     ("fibers", Obs.Json.Int fibers);
                     ("stall_steps", Obs.Json.Int stall_steps);
                     ("budget_steps", Obs.Json.Int sched_budget);
                     ("repetitions", Obs.Json.Int reps);
                     ("legacy_steps_per_sec", Obs.Json.Float legacy);
                     ("steps_per_sec", Obs.Json.Float fast);
                     ("speedup", Obs.Json.Float (speedup fast legacy));
                   ])
               stall) );
        ( "sfence",
          Obs.Json.List
            (List.map
               (fun (words, legacy, fast) ->
                 Obs.Json.Obj
                   [
                     ("pool_words", Obs.Json.Int words);
                     ("pending_words", Obs.Json.Int sfence_pending);
                     ("rounds", Obs.Json.Int sfence_rounds);
                     ("repetitions", Obs.Json.Int reps);
                     ("legacy_fences_per_sec", Obs.Json.Float legacy);
                     ("fences_per_sec", Obs.Json.Float fast);
                     ("speedup", Obs.Json.Float (speedup fast legacy));
                   ])
               sfence) );
        ( "clwb",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("what", Obs.Json.String "line-walk dirty count (per-CLWB bookkeeping)");
                  ("repetitions", Obs.Json.Int reps);
                  ("legacy_ops_per_sec", Obs.Json.Float fold_legacy);
                  ("ops_per_sec", Obs.Json.Float fold_fast);
                  ("speedup", Obs.Json.Float (speedup fold_fast fold_legacy));
                ];
              Obs.Json.Obj
                [
                  ("what", Obs.Json.String "store*8+clwb+sfence pipeline (absolute)");
                  ("repetitions", Obs.Json.Int reps);
                  ("ops_per_sec", Obs.Json.Float pipeline);
                ];
            ] );
        ( "hooks",
          Obs.Json.List
            (List.concat_map
               (fun (name, bare, listened, _) ->
                 List.map
                   (fun (listeners, ns) ->
                     Obs.Json.Obj
                       [
                         ("op", Obs.Json.String name);
                         ("policy", Obs.Json.String "null");
                         ("listeners", Obs.Json.String listeners);
                         ("iterations", Obs.Json.Int hook_iters);
                         ("repetitions", Obs.Json.Int reps);
                         ("ns_per_op", Obs.Json.Float ns);
                       ])
                   [ ("none", bare); ("worker", listened) ])
               hooks) );
        ( "hooks_por",
          Obs.Json.List
            (List.map
               (fun (name, _, _, por) ->
                 Obs.Json.Obj
                   [
                     ("op", Obs.Json.String name);
                     ("policy", Obs.Json.String "por-wrapped null");
                     ("listeners", Obs.Json.String "none");
                     ("iterations", Obs.Json.Int hook_iters);
                     ("repetitions", Obs.Json.Int reps);
                     ("ns_per_op", Obs.Json.Float por);
                   ])
               hooks) );
        ( "hub_commit",
          Obs.Json.Obj
            [
              ("target", Obs.Json.String "p-clht");
              ("queue_addresses", Obs.Json.Int addrs);
              ("alias_bits", Obs.Json.Int bits);
              ("rounds", Obs.Json.Int commit_rounds);
              ("repetitions", Obs.Json.Int reps);
              ("all_known_us", Obs.Json.Float known_us);
              ("all_new_us", Obs.Json.Float new_us);
            ] );
        ( "checkers",
          Obs.Json.List
            (List.map
               (fun (op, what, n, ns) ->
                 Obs.Json.Obj
                   [
                     ("op", Obs.Json.String op);
                     (what, Obs.Json.Int n);
                     ("iterations", Obs.Json.Int ck_iters);
                     ("repetitions", Obs.Json.Int reps);
                     ("ns_per_op", Obs.Json.Float ns);
                   ])
               checkers) );
      ]
  in
  let oc = open_out "BENCH_hotpath.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "(wrote BENCH_hotpath.json)@."
