(* Bechamel microbenchmarks: one Test.make per table/figure, measuring the
   cost of the mechanism behind each experiment. *)

open Bechamel
open Toolkit

let pclht_checkpoint = lazy (Pmrace.Engine.checkpoint Workloads.Pclht.target)

let pclht_engine =
  lazy
    (Pmrace.Engine.create ~checkpoint:(Lazy.force pclht_checkpoint) ~use_checkpoint:true
       Workloads.Pclht.target)
let pclht_seed =
  lazy (Pmrace.Seed.gen (Sched.Rng.create 77) Workloads.Pclht.target.profile)

(* Table 2: one full fuzz campaign on P-CLHT. *)
let t_table2 =
  Test.make ~name:"table2/fuzz-campaign(p-clht)"
    (Staged.stage (fun () ->
         let input =
           Pmrace.Campaign.input ~sched_seed:3 ~policy:Pmrace.Campaign.Random_sched
             Workloads.Pclht.target (Lazy.force pclht_seed)
         in
         ignore (Pmrace.Campaign.run ~engine:(Lazy.force pclht_engine) input)))

(* Table 3: one post-failure validation (recovery on a crash image), in a
   reused recovery context as validation runs it: the image repeats, so
   every boot after the first is a journal rewind. *)
let crash_image =
  lazy
    (let env = Runtime.Env.create ~pool_words:Workloads.Pclht.target.pool_words () in
     Workloads.Pclht.target.init env;
     Pmem.Pool.quiesce env.pool;
     Pmem.Pool.crash_image env.pool)

let t_table3 =
  let rctx = Pmrace.Post_failure.ctx Workloads.Pclht.target in
  Test.make ~name:"table3/post-failure-validation(p-clht)"
    (Staged.stage (fun () ->
         ignore (Pmrace.Post_failure.run_recovery rctx (Lazy.force crash_image))))

(* Table 4: operation-mutator seed generation vs AFL-style havoc. *)
let t_table4_op =
  let rng = Sched.Rng.create 99 in
  Test.make ~name:"table4/op-mutator-seed"
    (Staged.stage (fun () ->
         ignore (Pmrace.Seed.gen rng Workloads.Memcached.target.profile)))

let t_table4_afl =
  let rng = Sched.Rng.create 99 in
  Test.make ~name:"table4/afl-havoc-bytes"
    (Staged.stage (fun () -> ignore (Pmrace.Mutator.afl_havoc rng "set k3 0 0 3\r\nabc\r\n")))

(* Figure 8: a sync-point campaign vs a delay-injection campaign. *)
let t_fig8_pmrace =
  Test.make ~name:"fig8/pmrace-campaign(p-clht)"
    (Staged.stage (fun () ->
         let entry =
           { Pmrace.Shared_queue.addr = Pmdk.Layout.root_base; loads = []; stores = []; hits = 1 }
         in
         let input =
           Pmrace.Campaign.input ~sched_seed:3
             ~policy:(Pmrace.Campaign.Pmrace { entry; skip = 0 })
             Workloads.Pclht.target (Lazy.force pclht_seed)
         in
         ignore (Pmrace.Campaign.run ~engine:(Lazy.force pclht_engine) input)))

let t_fig8_delay =
  Test.make ~name:"fig8/delay-campaign(p-clht)"
    (Staged.stage (fun () ->
         let input =
           Pmrace.Campaign.input ~sched_seed:3
             ~policy:(Pmrace.Campaign.Delay { prob = 0.15; max_delay = 40 })
             Workloads.Pclht.target (Lazy.force pclht_seed)
         in
         ignore (Pmrace.Campaign.run ~engine:(Lazy.force pclht_engine) input)))

(* Figure 9: the coverage-metric update cost (alias bitmap insertion). *)
let t_fig9 =
  let cov = Pmrace.Alias_cov.create () in
  let i = ref 0 in
  Test.make ~name:"fig9/alias-coverage-observe"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Pmrace.Alias_cov.observe cov
              ~prev:{ Pmrace.Alias_cov.a_instr = !i land 1023; a_dirty = true; a_tid = 0 }
              ~cur:{ Pmrace.Alias_cov.a_instr = (!i * 7) land 1023; a_dirty = false; a_tid = 1 })))

(* Figure 10: expensive pool initialisation vs booting the checkpoint. *)
let t_fig10_init =
  Test.make ~name:"fig10/pool-init(libpmemobj-style)"
    (Staged.stage (fun () ->
         let env = Runtime.Env.create ~pool_words:Workloads.Pclht.target.pool_words () in
         Workloads.Pclht.target.init env))

(* The first boot from a checkpoint, once per worker: an O(pool) pass.
   Each run boots the image the pool was not booted from — alternately
   the checkpoint and the all-zero image of a fresh pool — so no run is a
   rewind. *)
let t_fig10_first_boot =
  let env = Runtime.Env.create ~pool_words:Workloads.Pclht.target.pool_words () in
  let zero = Pmem.Pool.crash_image env.pool in
  let flip = ref false in
  Test.make ~name:"fig10/checkpoint-first-boot(o-pool)"
    (Staged.stage (fun () ->
         flip := not !flip;
         Pmem.Pool.boot env.pool (if !flip then Lazy.force pclht_checkpoint else zero)))

(* The engine's per-checkout rewind: boot the checkpoint again after a
   small campaign-sized dirtying — compare against the first boot above. *)
let t_fig10_rewind =
  let env = Runtime.Env.create ~pool_words:Workloads.Pclht.target.pool_words () in
  let image = Lazy.force pclht_checkpoint in
  Pmem.Pool.boot env.pool image;
  Test.make ~name:"fig10/checkpoint-rewind(o-touched)"
    (Staged.stage (fun () ->
         for w = 0 to 15 do
           Pmem.Pool.store env.pool ~tid:0 ~instr:0 w 1L
         done;
         Pmem.Pool.boot env.pool image))

let tests =
  [
    t_table2;
    t_table3;
    t_table4_op;
    t_table4_afl;
    t_fig8_pmrace;
    t_fig8_delay;
    t_fig9;
    t_fig10_init;
    t_fig10_first_boot;
    t_fig10_rewind;
  ]

let run ppf =
  Format.fprintf ppf "@.Bechamel microbenchmarks (ns/run, OLS on monotonic clock):@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~stabilize:false () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Format.fprintf ppf "  %-44s %14.0f@." name t
          | Some _ | None -> Format.fprintf ppf "  %-44s (no estimate)@." name)
        results)
    tests
