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
  let nf1 = Report.absorb ~campaign:0 report r1.env ~hung:false ~hang_info:"" in
  Alcotest.(check bool) "first absorb yields findings" true (nf1 <> []);
  let _, r2 = find_confirming () in
  let nf2 = Report.absorb ~campaign:1 report r2.env ~hung:false ~hang_info:"" in
  Alcotest.(check int) "identical findings deduplicated" 0 (List.length nf2)

let test_report_groups_and_matching () =
  let report = Report.create () in
  let _, r = find_confirming () in
  let nf = Report.absorb ~campaign:0 report r.env ~hung:false ~hang_info:"" in
  let vctx = Post.ctx target in
  List.iter (fun f -> ignore (Report.validate vctx f)) nf;
  let groups = Report.bug_groups report in
  Alcotest.(check bool) "has inter group" true
    (List.exists (fun g -> g.Report.bg_kind = `Inter && g.bg_site = "figure1.c:store_x") groups);
  let matches = Report.match_known target groups in
  Alcotest.(check bool) "known bugs matched" true (List.for_all snd matches)

(* The checker asks its capture value once per unique finding, as it
   records it.  On the confirming campaign, with a set that knows one of
   its inconsistencies, one of its sync events or nothing: a known
   finding gets no surface, an unknown one gets one (so an empty set
   captures everything), the findings themselves never change, and the
   checker counts exactly the surfaces it requested. *)
let test_capture_known () =
  let sched_seed, _ = find_confirming () in
  let run capture =
    Campaign.run
      ~engine:(Pmrace.Engine.create ~capture target)
      (Campaign.input ~sched_seed ~policy:Campaign.Random_sched target (seed ()))
  in
  let inc_key (i : Checkers.inconsistency) = Checkers.inc_key i.source i.eff_instr in
  let sync_key (e : Checkers.sync_event) = (e.var.Checkers.sv_name, e.sy_value) in
  let findings (r : Campaign.result) =
    let ck = r.env.Runtime.Env.checkers in
    (Checkers.inconsistencies ck, Checkers.sync_events ck)
  in
  let reference = run Checkers.all in
  let incs, syncs = findings reference in
  let i0, e0 =
    match (incs, syncs) with
    | i :: _, e :: _ -> (i, e)
    | _ -> Alcotest.fail "the confirming campaign has no inconsistency or no sync event"
  in
  let identities (incs, syncs) = (List.map inc_key incs, List.map sync_key syncs) in
  let check label ~known_incs ~known_syncs =
    let r =
      run
        {
          Checkers.inc = (fun key -> not (List.mem key known_incs));
          sync = (fun name v -> not (List.mem (name, v) known_syncs));
        }
    in
    let incs, syncs = findings r in
    Alcotest.(check bool) (label ^ ": same findings") true
      (identities (incs, syncs) = identities (findings reference));
    List.iter
      (fun (i : Checkers.inconsistency) ->
        Alcotest.(check bool) (label ^ ": inconsistency surface")
          (not (List.mem (inc_key i) known_incs))
          (i.crash <> None))
      incs;
    List.iter
      (fun (e : Checkers.sync_event) ->
        Alcotest.(check bool) (label ^ ": sync surface")
          (not (List.mem (sync_key e) known_syncs))
          (e.sy_crash <> None))
      syncs;
    Alcotest.(check int) (label ^ ": captures")
      (List.length (List.filter (fun (i : Checkers.inconsistency) -> i.crash <> None) incs)
      + List.length (List.filter (fun (e : Checkers.sync_event) -> e.sy_crash <> None) syncs))
      (Checkers.captures r.env.Runtime.Env.checkers)
  in
  check "empty set" ~known_incs:[] ~known_syncs:[];
  check "known inconsistency" ~known_incs:[ inc_key i0 ] ~known_syncs:[];
  check "known sync event" ~known_incs:[] ~known_syncs:[ sync_key e0 ];
  let none = run Checkers.none in
  Alcotest.(check int) "none: no capture" 0 (Checkers.captures none.env.Runtime.Env.checkers)

(* A replay captures only for its bug group: every inconsistency of the
   group's kind and write site (or sync event of its variable) in the
   group's first campaign gets a surface, every other finding none.  A
   group whose site name was never registered captures nothing and
   registers no site. *)
let test_group_capture () =
  let module Artifact = Pmrace.Artifact in
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~master_seed:5 () in
  let art = Artifact.of_session ~target ~cfg (Pmrace.Fuzzer.run target cfg) in
  if not (List.exists (fun (b : Artifact.bug) -> b.b_kind = "sync") art.a_bugs) then
    Alcotest.fail "the session found no sync bug";
  let replay (b : Artifact.bug) =
    let p =
      Option.get (Artifact.find_provenance art (Option.get b.Artifact.b_first_campaign))
    in
    let r = Pmrace.Replay.rerun ~target ~artifact:art ~capture:(Pmrace.Replay.group_capture b) p in
    let ck = r.env.Runtime.Env.checkers in
    let of_group kind site = String.equal kind b.b_kind && String.equal site b.b_site in
    let incs =
      List.map
        (fun (i : Checkers.inconsistency) ->
          let kind = match i.source.kind with Candidates.Inter -> `Inter | Intra -> `Intra in
          ( of_group (Report.kind_slug kind) (Runtime.Instr.name i.source.write_instr),
            i.crash <> None ))
        (Checkers.inconsistencies ck)
    and syncs =
      List.map
        (fun (e : Checkers.sync_event) -> (of_group "sync" e.var.sv_name, e.sy_crash <> None))
        (Checkers.sync_events ck)
    in
    incs @ syncs
  in
  List.iter
    (fun (b : Artifact.bug) ->
      let label = Printf.sprintf "%s at %s" b.b_kind b.b_site in
      let findings = replay b in
      List.iter
        (fun (in_group, captured) -> Alcotest.(check bool) (label ^ ": surface") in_group captured)
        findings;
      Alcotest.(check bool) (label ^ ": the group's finding has a surface") true
        (List.exists snd findings))
    art.a_bugs;
  let sites = Runtime.Instr.count () in
  List.iter
    (fun (b : Artifact.bug) ->
      let findings = replay { b with b_site = "never-registered.c:site" } in
      Alcotest.(check bool) "unregistered site: nothing captured" false (List.exists snd findings))
    art.a_bugs;
  Alcotest.(check int) "no site registered" sites (Runtime.Instr.count ())

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
    Alcotest.test_case "capture: known findings get no surface" `Quick test_capture_known;
    Alcotest.test_case "capture: a replay's own bug group only" `Quick test_group_capture;
  ]
