(* Driver for the offline persistency analyzer: run seed executions with
   trace capture, feed the traces to Analysis.Analyzer.

   The executions use plain random scheduling (every instrumented
   operation a preemption point) so cross-thread publishes show up in the
   traces; the analyzer itself is entirely offline.  A private RNG keeps
   the driver deterministic and independent of the fuzzer's streams.

   When the analysis config enables the taxonomy detectors, each seed
   execution is followed by a recovery replay: the post-crash image of
   the finished run is booted and the target's recovery code traced, so
   the missing-recovery-path-flush detector sees real recovery traces. *)

module Rng = Sched.Rng
module Trace = Runtime.Trace

type config = {
  seeds : int;
  scheds_per_seed : int;
  master_seed : int;
  step_budget : int;
  analysis : Analysis.Analyzer.config;
}

let default_config =
  {
    seeds = 6;
    scheds_per_seed = 2;
    master_seed = 7;
    step_budget = 60_000;
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

(* Iterate the driver's seed executions, handing each completed campaign
   result (with its recorded trace) to [f]. *)
let iter_executions ?(cfg = default_config) ?snapshot (target : Target.t) f =
  let rng = Rng.create cfg.master_seed in
  (* One persistent engine for all seed executions, reset in O(touched)
     between them; given the session's [snapshot] it does not initialise
     the target again.  The trace is a transient listener, so each
     checkout starts with it detached. *)
  let engine = Engine.create ~capture_images:false ?snapshot target in
  for _ = 1 to cfg.seeds do
    let seed = Seed.gen rng target.Target.profile in
    for _ = 1 to cfg.scheds_per_seed do
      let sched_seed = Rng.int rng 1_000_000_000 in
      let trace = Trace.create () in
      let input =
        Campaign.input ~sched_seed ~policy:Campaign.Random_sched ~step_budget:cfg.step_budget
          target seed
      in
      let res = Campaign.run ~engine ~listeners:[ Trace.attach trace ] input in
      Obs.Metrics.incr (Lazy.force m_executions);
      f res trace
    done
  done

let run ?(cfg = default_config) ?snapshot (target : Target.t) =
  let t0 = Obs.Clock.now () in
  let az = Analysis.Analyzer.create ~cfg:cfg.analysis () in
  let taxonomy = cfg.analysis.Analysis.Analyzer.taxonomy in
  let rctx = Post_failure.ctx target in
  iter_executions ~cfg ?snapshot target (fun (res : Campaign.result) trace ->
      Analysis.Analyzer.absorb_trace az trace;
      if taxonomy then begin
        (* Recovery replay: boot the end-of-run durable image and trace
           the target's recovery path, so its own flush discipline is
           linted too (missing-recovery-flush residue). *)
        let image = Pmem.Pool.crash_image res.Campaign.env.Runtime.Env.pool in
        let rtrace = Trace.create () in
        let (_ : Post_failure.recovery_result) =
          Post_failure.run_recovery ~listeners:[ Trace.attach rtrace ] rctx image
        in
        Obs.Metrics.incr (Lazy.force m_recoveries);
        Analysis.Analyzer.absorb_recovery az (Trace.events rtrace)
      end);
  Obs.Metrics.set (Lazy.force m_duration) (Obs.Clock.elapsed t0);
  Analysis.Analyzer.result az

(* Record the driver's seed executions as raw event streams, without
   analysing them — the bench harness replays these through differently
   configured analyzers, and tests mine/check invariants offline. *)
let record ?cfg (target : Target.t) =
  let traces = ref [] in
  iter_executions ?cfg target (fun _res trace -> traces := Trace.events trace :: !traces);
  List.rev !traces

let prepass ?(seeds = 4) ?(analysis = Analysis.Analyzer.default_config) ?snapshot target =
  run ~cfg:{ default_config with seeds; master_seed = 11; analysis } ?snapshot target
