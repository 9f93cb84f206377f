(* Campaign execution, checkpoints, post-failure validation, reports, and
   the whitelist — exercised through the Figure 1 example target. *)

module Campaign = Pmrace.Campaign
module Seed = Pmrace.Seed
module Report = Pmrace.Report
module Post = Pmrace.Post_failure
module Whitelist = Pmrace.Whitelist
module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates
module Rng = Sched.Rng

let target = Workloads.Figure1.target
let seed () = Seed.gen (Rng.create 3) target.profile

(* Figure 1 has a cheap init, so its default engine builds a fresh
   environment per campaign. *)
let run input = Campaign.run ~engine:(Pmrace.Engine.create target) input

(* Find a scheduler seed whose campaign confirms the Figure 1 inter
   inconsistency. *)
let find_confirming () =
  let rec go s =
    if s > 400 then Alcotest.fail "no confirming campaign within 400 seeds"
    else
      let input = Campaign.input ~sched_seed:s ~policy:Campaign.Random_sched target (seed ()) in
      let r = run input in
      match Checkers.inconsistencies r.env.Runtime.Env.checkers with
      | [] -> go (s + 1)
      | _ :: _ -> (s, r)
  in
  go 1

let test_campaign_completes () =
  let input = Campaign.input ~sched_seed:1 target (seed ()) in
  let r = run input in
  Alcotest.(check bool) "completed" true (Sched.Scheduler.completed r.outcome);
  Alcotest.(check bool) "no hang" false r.hung

let test_campaign_deterministic () =
  let run () =
    let input = Campaign.input ~sched_seed:7 target (seed ()) in
    let r = run input in
    ( Candidates.dynamic_count (Checkers.candidates r.env.Runtime.Env.checkers),
      List.length (Checkers.inconsistencies r.env.Runtime.Env.checkers),
      r.outcome.steps )
  in
  Alcotest.(check bool) "identical replay" true (run () = run ())

let test_checkpoint_equivalence () =
  (* Starting from an in-memory checkpoint must not change the findings. *)
  let run_with ~use_checkpoint =
    let engine = Pmrace.Engine.create ~use_checkpoint target in
    Campaign.run ~engine (Campaign.input ~sched_seed:7 target (seed ()))
  in
  let summary (r : Campaign.result) =
    ( Candidates.dynamic_count (Checkers.candidates r.env.Runtime.Env.checkers),
      List.length (Checkers.inconsistencies r.env.Runtime.Env.checkers) )
  in
  Alcotest.(check bool)
    "same findings" true
    (summary (run_with ~use_checkpoint:true) = summary (run_with ~use_checkpoint:false))

let test_crash_image_shows_inconsistency () =
  (* The crash image captured at confirmation must contain the durable side
     effect (y) but not the source (x): y <> x after the crash. *)
  let _, r = find_confirming () in
  match Checkers.inconsistencies r.env.Runtime.Env.checkers with
  | inc :: _ ->
      let image = Option.get (Pmem.Crash_images.image (Option.get inc.Checkers.crash) 0) in
      let y = Pmem.Pool.image_word image Workloads.Figure1.y_off in
      let x = Pmem.Pool.image_word image Workloads.Figure1.x_off in
      Alcotest.(check bool) "y persisted, x stale" true (not (Int64.equal y x))
  | [] -> Alcotest.fail "expected inconsistency"

let test_validation_bug () =
  (* Figure 1 has no recovery, so the inconsistency is a true bug. *)
  let _, r = find_confirming () in
  let inc = List.hd (Checkers.inconsistencies r.env.Runtime.Env.checkers) in
  match Post.validate (Post.ctx target) (Post.Candidate.Inconsistency inc) with
  | Post.Bug _ -> ()
  | v -> Alcotest.failf "expected Bug, got %a" Post.pp_verdict v

let test_validation_whitelisted () =
  let _, r = find_confirming () in
  let inc = List.hd (Checkers.inconsistencies r.env.Runtime.Env.checkers) in
  let wl = Whitelist.create [ "figure1.c:read_x" ] in
  match Post.validate (Post.ctx ~whitelist:wl target) (Post.Candidate.Inconsistency inc) with
  | Post.Whitelisted_fp -> ()
  | v -> Alcotest.failf "expected Whitelisted_fp, got %a" Post.pp_verdict v

let test_validation_fixed_by_recovery () =
  (* A variant of the target whose recovery overwrites y: validation must
     classify the same inconsistency as a false positive. *)
  let fixed_target =
    {
      target with
      Pmrace.Target.recover =
        (fun env ->
          let ctx = Runtime.Env.ctx env ~tid:(-2) in
          let i = Runtime.Instr.site "figure1.c:recover_y" in
          Runtime.Mem.store ctx ~instr:i (Runtime.Tval.of_int Workloads.Figure1.y_off)
            Runtime.Tval.zero;
          Runtime.Mem.persist ctx ~instr:i (Runtime.Tval.of_int Workloads.Figure1.y_off));
    }
  in
  let _, r = find_confirming () in
  let inc = List.hd (Checkers.inconsistencies r.env.Runtime.Env.checkers) in
  match Post.validate (Post.ctx fixed_target) (Post.Candidate.Inconsistency inc) with
  | Post.Validated_fp -> ()
  | v -> Alcotest.failf "expected Validated_fp, got %a" Post.pp_verdict v

let test_sync_validation () =
  let _, r = find_confirming () in
  match Checkers.sync_events r.env.Runtime.Env.checkers with
  | ev :: _ -> (
      (* No recovery: the lock stays held -> bug. *)
      (match Post.validate (Post.ctx target) (Post.Candidate.Sync ev) with
      | Post.Bug _ -> ()
      | v -> Alcotest.failf "expected Bug, got %a" Post.pp_verdict v);
      (* Recovery resetting g: false positive. *)
      let fixed =
        {
          target with
          Pmrace.Target.recover =
            (fun env ->
              let ctx = Runtime.Env.ctx env ~tid:(-2) in
              let i = Runtime.Instr.site "figure1.c:recover_g" in
              Runtime.Mem.store ctx ~instr:i (Runtime.Tval.of_int Workloads.Figure1.g_off)
                Runtime.Tval.zero;
              Runtime.Mem.persist ctx ~instr:i (Runtime.Tval.of_int Workloads.Figure1.g_off));
        }
      in
      match Post.validate (Post.ctx fixed) (Post.Candidate.Sync ev) with
      | Post.Validated_fp -> ()
      | v -> Alcotest.failf "expected Validated_fp, got %a" Post.pp_verdict v)
  | [] -> Alcotest.fail "expected a sync event (the lock g is annotated)"

let test_report_dedup () =
  let report = Report.create () in
  let _, r1 = find_confirming () in
  let nf1, _ = Report.absorb report r1.env ~hung:false ~hang_info:"" in
  Alcotest.(check bool) "first absorb yields findings" true (nf1 <> []);
  let _, r2 = find_confirming () in
  let nf2, _ = Report.absorb report r2.env ~hung:false ~hang_info:"" in
  Alcotest.(check int) "identical findings deduplicated" 0 (List.length nf2);
  Alcotest.(check int) "campaigns counted" 2 (Report.campaigns report)

let test_report_groups_and_matching () =
  let report = Report.create () in
  let _, r = find_confirming () in
  let nf, ns = Report.absorb report r.env ~hung:false ~hang_info:"" in
  let vctx = Post.ctx target in
  List.iter
    (fun (f : Report.finding) ->
      f.verdict <- Some (Post.validate vctx (Post.Candidate.Inconsistency f.inc)))
    nf;
  List.iter
    (fun (f : Report.sync_finding) ->
      f.sync_verdict <- Some (Post.validate vctx (Post.Candidate.Sync f.ev)))
    ns;
  let groups = Report.bug_groups report in
  Alcotest.(check bool) "has inter group" true
    (List.exists (fun g -> g.Report.bg_kind = `Inter && g.bg_site = "figure1.c:store_x") groups);
  let matches = Report.match_known target groups in
  Alcotest.(check bool) "known bugs matched" true (List.for_all snd matches)

let test_whitelist () =
  let wl = Whitelist.create [ "a"; "b" ] in
  Alcotest.(check bool) "mem" true (Whitelist.mem_site wl "a");
  Alcotest.(check bool) "not mem" false (Whitelist.mem_site wl "c");
  Whitelist.add wl "c";
  Alcotest.(check bool) "added" true (Whitelist.mem_site wl "c");
  Alcotest.(check (list string)) "sites sorted" [ "a"; "b"; "c" ] (Whitelist.sites wl)

let suite =
  [
    Alcotest.test_case "campaign completes" `Quick test_campaign_completes;
    Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
    Alcotest.test_case "checkpoint equivalence" `Quick test_checkpoint_equivalence;
    Alcotest.test_case "crash image shows y<>x" `Quick test_crash_image_shows_inconsistency;
    Alcotest.test_case "validation: bug" `Quick test_validation_bug;
    Alcotest.test_case "validation: whitelisted" `Quick test_validation_whitelisted;
    Alcotest.test_case "validation: fixed by recovery" `Quick test_validation_fixed_by_recovery;
    Alcotest.test_case "sync validation" `Quick test_sync_validation;
    Alcotest.test_case "report dedup" `Quick test_report_dedup;
    Alcotest.test_case "report groups + matching" `Quick test_report_groups_and_matching;
    Alcotest.test_case "whitelist" `Quick test_whitelist;
  ]
