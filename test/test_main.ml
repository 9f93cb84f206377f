(* The complete test suite: substrates (PM pool, scheduler, RNG), the
   instrumented runtime with taint analysis and checkers, PMRace's
   coverage/mutation/scheduling/validation machinery, the mini-PMDK, the
   five reproduced PM systems, and full end-to-end fuzzing sessions. *)

let () =
  Alcotest.run "pmrace-repro"
    [
      ("cacheline", Test_cacheline.suite);
      ("pool", Test_pool.suite);
      ("rng", Test_rng.suite);
      ("scheduler", Test_scheduler.suite);
      ("taint+tval", Test_taint.suite);
      ("runtime", Test_runtime.suite);
      ("coverage", Test_coverage.suite);
      ("seed+mutator", Test_seed_mutator.suite);
      ("policies", Test_policies.suite);
      ("pmdk", Test_pmdk.suite);
      ("proto", Test_proto.suite);
      ("campaign+validation", Test_campaign.suite);
      ("engine", Test_engine.suite);
      ("fuzzer", Test_fuzzer.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("extensions", Test_extensions.suite);
      ("analysis", Test_analysis.suite);
      ("detectors", Test_detectors.suite);
      ("invariants", Test_invariants.suite);
      ("integration", Test_integration.suite);
      ("crashimages", Test_crashimages.suite);
      ("por", Test_por.suite);
      ("recovery", Test_recovery.suite);
      ("hooks", Test_hooks.suite);
      (* Keep fleet and codec LAST: their wire/store codecs register
         novel Instr sites at runtime, which would shift the raw
         alias-bitmap hash layout under the golden sessions above. *)
      ("fleet", Test_fleet.suite);
      ("codec", Test_codec.suite);
    ]
