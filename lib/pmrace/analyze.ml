(* Driver for the offline persistency analyzer: run seed executions with
   Analysis.Analyzer attached as their listener.

   The executions use plain random scheduling (every instrumented
   operation a preemption point) so cross-thread publishes show up in the
   event streams; the analyzer only observes them.  A private RNG keeps
   the driver deterministic and independent of the fuzzer's streams.

   When the analysis config enables the taxonomy detectors, each seed
   execution is followed by a recovery replay: the post-crash image of
   the finished run is booted and the target's recovery code run under
   the analyzer, so the missing-recovery-path-flush detector sees real
   recovery runs. *)

module Rng = Sched.Rng

type config = {
  seeds : int;
  scheds_per_seed : int;
  master_seed : int;
  analysis : Analysis.Analyzer.config;
}

let default_config =
  {
    seeds = 6;
    scheds_per_seed = 2;
    master_seed = 7;
    analysis = Analysis.Analyzer.default_config;
  }

(* Pool regions per the mini-PMDK layout, for the cross-region
   durability-ordering detector: header / root / heap metadata / undo
   logs / heap data. *)
let region_of_word w =
  if w < Pmdk.Layout.root_base then 0
  else if w < Pmdk.Layout.heap_meta then 1
  else if w < Pmdk.Layout.log_base then 2
  else if w < Pmdk.Layout.heap_base then 3
  else 4

let full_analysis = { Analysis.Analyzer.full with region_of = Some region_of_word }
let full_config = { default_config with analysis = full_analysis }

let m_executions = lazy (Obs.Metrics.counter "analyze_executions_total")
let m_recoveries = lazy (Obs.Metrics.counter "analyze_recovery_executions_total")
let m_duration = lazy (Obs.Metrics.gauge "analyze_duration_seconds")

(* Iterate the driver's seed executions: each runs with [attach] as its
   listener, and [f] gets the completed campaign result. *)
let iter_executions ?(cfg = default_config) ?checkpoint (target : Target.t) ~attach f =
  let rng = Rng.create cfg.master_seed in
  (* One persistent engine for all seed executions, reset in O(touched)
     between them; given the session's [checkpoint] it does not initialise
     the target again.  [attach] adds a listener that the next checkout's
     boot drops, so each checkout starts with it detached. *)
  let engine = Engine.create ~capture_images:false ?checkpoint target in
  for _ = 1 to cfg.seeds do
    let seed = Seed.gen rng target.Target.profile in
    for _ = 1 to cfg.scheds_per_seed do
      let sched_seed = Rng.int rng 1_000_000_000 in
      let input = Campaign.input ~sched_seed ~policy:Campaign.Random_sched target seed in
      let res = Campaign.run ~engine ~listeners:[ attach ] input in
      Obs.Metrics.incr (Lazy.force m_executions);
      f res
    done
  done

let run ?(cfg = default_config) ?checkpoint (target : Target.t) =
  let t0 = Obs.Clock.now () in
  let az = Analysis.Analyzer.create ~cfg:cfg.analysis () in
  let taxonomy = cfg.analysis.Analysis.Analyzer.taxonomy in
  let rctx = Post_failure.ctx target in
  iter_executions ~cfg ?checkpoint target ~attach:(Analysis.Analyzer.attach az `Normal)
    (fun (res : Campaign.result) ->
      Analysis.Analyzer.finish az `Normal;
      if taxonomy then begin
        (* Recovery replay: boot the end-of-run durable image and run the
           target's recovery path under the analyzer, so its own flush
           discipline is linted too (missing-recovery-flush residue). *)
        let image = Pmem.Pool.crash_image res.Campaign.env.Runtime.Env.pool in
        let (_ : Post_failure.recovery_result) =
          Post_failure.run_recovery ~listeners:[ Analysis.Analyzer.attach az `Recovery ] rctx image
        in
        Obs.Metrics.incr (Lazy.force m_recoveries);
        Analysis.Analyzer.finish az `Recovery
      end);
  Obs.Metrics.set (Lazy.force m_duration) (Obs.Clock.elapsed t0);
  Analysis.Analyzer.result az

(* Record the driver's seed executions as raw event streams, without
   analysing them — the bench harness replays these through differently
   configured analyzers, and tests mine/check invariants offline. *)
let record ?cfg (target : Target.t) =
  let events = ref [] and traces = ref [] in
  iter_executions ?cfg target
    ~attach:(fun env -> Runtime.Env.add_listener env (fun ev -> events := ev :: !events))
    (fun _ ->
      traces := List.rev !events :: !traces;
      events := []);
  List.rev !traces

let prepass ?(seeds = 4) ?(analysis = Analysis.Analyzer.default_config) ?checkpoint target =
  run ~cfg:{ default_config with seeds; master_seed = 11; analysis } ?checkpoint target
