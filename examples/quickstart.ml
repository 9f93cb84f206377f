(* Quickstart: fuzz the paper's Figure 1 program and watch PMRace find
   both PM concurrency bug patterns.

     dune exec examples/quickstart.exe

   The target is two threads over three persistent words:
     thread-1: lock(g); x := A; ... ; clwb x; sfence; unlock(g)
     thread-2: y := x; clwb y; sfence
   plus a persisted lock g that no recovery code ever resets. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

let () =
  Format.printf "PMRace quickstart: fuzzing the Figure 1 example@.@.";
  let target = Workloads.Figure1.target in
  let cfg = Fuzzer.Config.make ~max_campaigns:60 ~master_seed:3 () in
  let session = Fuzzer.run target cfg in
  Format.printf "%d campaigns in %.3fs; coverage: %d alias pairs, %d branches@.@."
    session.campaigns_run session.wall_time
    (Pmrace.Alias_cov.count session.alias)
    (Pmrace.Branch_cov.count session.branch);

  Format.printf "Inconsistency candidates (reads of non-persisted data):@.";
  List.iter
    (fun (w, r, k) ->
      Format.printf "  %s candidate: written at %s, read at %s@."
        (match k with Runtime.Candidates.Inter -> "inter-thread" | Intra -> "intra-thread")
        w r)
    (Report.candidate_pairs session.report);

  Format.printf "@.Confirmed inconsistencies and their verdicts:@.";
  List.iter
    (fun f -> Format.printf "  %a@." Report.pp_finding f)
    (Report.findings session.report @ Report.sync_findings session.report);

  Format.printf "@.Ground truth:@.";
  List.iter
    (fun ((kb : Pmrace.Target.known_bug), found) ->
      Format.printf "  [%s] %a@."
        (if found then "FOUND" else "MISS")
        Pmrace.Target.pp_known_bug kb)
    (Fuzzer.found_known_bugs session target);

  (* Demonstrate the crash consequence concretely: boot the crash image of
     the first confirmed inconsistency and compare x and y. *)
  match
    List.find_map
      (fun (f : Report.finding) ->
        match f.subject with Report.Inconsistency inc -> inc.Runtime.Checkers.crash | _ -> None)
      (Report.findings session.report)
  with
  | Some crash ->
      let image = Option.get (Pmem.Crash_images.image crash 0) in
      let x = Pmem.Pool.image_word image Workloads.Figure1.x_off in
      let y = Pmem.Pool.image_word image Workloads.Figure1.y_off in
      let g = Pmem.Pool.image_word image Workloads.Figure1.g_off in
      Format.printf "@.Crash image at the inconsistency: x=%Ld y=%Ld g=%Ld@." x y g;
      Format.printf "y was derived from x, yet y <> x after the crash: %b@."
        (not (Int64.equal x y))
  | None -> Format.printf "@.(no crash image captured)@."
