(** Driver for the offline persistency analyzer ([lib/analysis]).

    Runs a bounded set of seed executions of a target with
    {!Analysis.Analyzer} attached as their listener — the reproduction's
    stand-in for PMRace's LLVM pre-pass: it bounds alias-pair coverage
    (the possible-pair denominator) and lints each execution against the
    persistency lifecycle rules.  Used standalone by [pmrace analyze] and as the fuzzer's
    static pre-pass.

    When the embedded analysis config enables the taxonomy detectors,
    each seed execution is followed by a recovery replay of its
    end-of-run durable image under the analyzer, feeding the
    missing-recovery-path-flush detector. *)

type config = {
  seeds : int;  (** distinct generated seeds to execute *)
  scheds_per_seed : int;  (** random schedules per seed *)
  master_seed : int;
  analysis : Analysis.Analyzer.config;  (** detector gating *)
}

val default_config : config
(** v1-compatible: all second-generation detectors off. *)

val full_analysis : Analysis.Analyzer.config
(** {!Analysis.Analyzer.full} with the pool-region classifier of the
    mini-PMDK layout (header / root / heap metadata / undo logs / heap)
    installed, for the cross-region ordering detector. *)

val full_config : config
(** {!default_config} with {!full_analysis}. *)

val run :
  ?cfg:config -> ?checkpoint:Pmem.Pool.image -> Target.t -> Analysis.Analyzer.result
(** Execute the seed set and analyse each execution as it runs.  The
    executions share one persistent engine, booted from [checkpoint] when
    given (see {!Engine.checkpoint}) instead of initialising the target
    again; the results are the same either way. *)

val record : ?cfg:config -> Target.t -> Runtime.Env.event list list
(** Execute the seed set and return the raw recorded event streams
    without analysing them — for benchmarking differently configured
    analyzers over identical traces, and for offline invariant tests. *)

val prepass :
  ?seeds:int ->
  ?analysis:Analysis.Analyzer.config ->
  ?checkpoint:Pmem.Pool.image ->
  Target.t ->
  Analysis.Analyzer.result
(** The fuzzer-facing entry point: a smaller seed set, fixed master seed
    (deterministic across fuzzer configurations).  [analysis] defaults to
    all detectors off, preserving the bit-identical seeded pre-pass.
    [checkpoint] is the session's checkpoint, as for {!run}. *)
