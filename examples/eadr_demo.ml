(* The §6.6 discussion, demonstrated: fuzz P-CLHT on a conventional ADR
   platform and then on an eADR platform (battery-backed caches).

     dune exec examples/eadr_demo.exe

   Under eADR every store is durable immediately, so no thread can ever
   read non-persisted data — PM Inter-thread Inconsistency is impossible
   by construction.  But the persistent bucket locks still survive crashes
   unreleased: PM Synchronization Inconsistency, and its hang, remain. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

let run ~eadr =
  let cfg = Fuzzer.Config.make ~max_campaigns:250 ~master_seed:5 ~eadr ~use_checkpoint:true () in
  Fuzzer.run Workloads.Pclht.target cfg

let describe label (s : Fuzzer.session) =
  let sync_fp, _, sync_bugs, _ = Report.sync_summary s.report in
  Format.printf "%s@." label;
  Format.printf "  inter-thread candidates      : %d@."
    (Report.candidate_count s.report Runtime.Candidates.Inter);
  Format.printf "  inter-thread inconsistencies : %d@."
    (Report.inconsistency_count s.report Runtime.Candidates.Inter);
  Format.printf "  sync inconsistencies         : %d (%d validated FP, %d bugs)@."
    (List.length (Report.sync_findings s.report))
    sync_fp sync_bugs;
  List.iter
    (fun ((kb : Pmrace.Target.known_bug), found) ->
      if kb.kb_type = `Inter || kb.kb_type = `Sync then
        Format.printf "  bug %d (%s): %s@." kb.kb_id
          (match kb.kb_type with `Inter -> "Inter" | _ -> "Sync")
          (if found then "FOUND" else "not found"))
    (Fuzzer.found_known_bugs s Workloads.Pclht.target)

let () =
  Format.printf "P-CLHT under conventional ADR (volatile caches):@.@.";
  describe "ADR" (run ~eadr:false);
  Format.printf "@.P-CLHT under eADR (battery-backed caches, no flushes needed):@.@.";
  describe "eADR" (run ~eadr:true);
  Format.printf
    "@.As §6.6 argues: eADR removes the Inter-thread Inconsistencies entirely,@.";
  Format.printf
    "while the unreleased persistent locks still hang the recovered program.@."
