(* The coverage-guided fuzzing loop: session behaviour, modes, ablations,
   timelines, and end-to-end bug finding on the Figure 1 example. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

let cfg campaigns = Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:3 ()

let test_finds_figure1_bugs () =
  let s = Fuzzer.run Workloads.Figure1.target (cfg 40) in
  let found = Fuzzer.found_known_bugs s Workloads.Figure1.target in
  Alcotest.(check int) "two known bugs" 2 (List.length found);
  Alcotest.(check bool) "all found" true (List.for_all snd found)

let test_respects_budget () =
  let s = Fuzzer.run Workloads.Figure1.target (cfg 25) in
  Alcotest.(check int) "campaign budget" 25 s.campaigns_run;
  Alcotest.(check int) "timeline point per campaign" 25 (List.length s.timeline)

let test_timeline_monotonic () =
  let s = Fuzzer.run Workloads.Figure1.target (cfg 30) in
  let rec check = function
    | (a : Fuzzer.timeline_point) :: (b :: _ as rest) ->
        Alcotest.(check bool) "campaigns increase" true (b.tp_campaign > a.tp_campaign);
        Alcotest.(check bool) "coverage monotonic" true
          (b.tp_alias_bits + b.tp_branch_bits >= a.tp_alias_bits + a.tp_branch_bits);
        Alcotest.(check bool) "inter count monotonic" true (b.tp_inter_unique >= a.tp_inter_unique);
        check rest
    | _ -> ()
  in
  check s.timeline

(* A session's exploration fingerprint: every campaign's (index, sched
   seed, policy label, seed fingerprint) plus the unique-bug groups, as a
   digest.  Unlike a sched-seed-only hash it moves when a loop change
   shifts which seed or policy a campaign ran, e.g. a generation
   boundary.  Site ids never enter it, so it is stable across binaries. *)
let session_golden (s : Fuzzer.session) =
  let b = Buffer.create 4096 in
  Hashtbl.fold (fun k (p : Fuzzer.provenance) acc -> (k, p) :: acc) s.provenance []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (k, (p : Fuzzer.provenance)) ->
         Printf.bprintf b "%d %d %s %Ld\n" k p.p_sched_seed p.p_policy
           (Pmrace.Seed.fingerprint p.p_seed));
  Report.bug_groups s.report
  |> List.map (fun (g : Report.bug_group) -> (Report.kind_slug g.bg_kind, g.bg_site))
  |> List.sort compare
  |> List.iter (fun (k, site) -> Printf.bprintf b "bug %s %s\n" k site);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

(* 60 campaigns span several seed generations in every mode, so the
   goldens pin the execution-tier patience and the generation loop. *)
let test_modes_run () =
  List.iter
    (fun (name, mode, golden) ->
      let s = Fuzzer.run Workloads.Figure1.target { (cfg 60) with mode } in
      Alcotest.(check int) (name ^ ": campaigns") 60 s.campaigns_run;
      Alcotest.(check string) (name ^ ": session golden") golden (session_golden s))
    [
      ("pmrace", Fuzzer.Mode_pmrace, "41f0dd664c4c8fd8");
      ("delay", Fuzzer.Mode_delay, "64ae2620faa94126");
      ("random", Fuzzer.Mode_random, "41bb846e42ff311f");
    ]

let test_ablations_run () =
  List.iter
    (fun (name, ie, se, golden) ->
      let s =
        Fuzzer.run Workloads.Figure1.target
          { (cfg 60) with interleaving_tier = ie; seed_tier = se }
      in
      Alcotest.(check int) (name ^ ": campaigns") 60 s.campaigns_run;
      Alcotest.(check string) (name ^ ": session golden") golden (session_golden s))
    [
      ("no-IE", false, true, "ed9d76edcbcd914f");
      ("no-SE", true, false, "fbf7f0e81fcb9f20");
      ("no-IE+no-SE", false, false, "dd4901c8f59b68ac");
    ]

(* The same fingerprint for sessions with the static pre-pass and mined
   invariants on: the pre-pass re-scores seeds at every campaign boundary,
   so the per-campaign seed fingerprints pin the priorities that drive
   parent selection, and every invariant finding enters with its first
   campaign and verdict. *)
let static_inv_golden (s : Fuzzer.session) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (session_golden s);
  List.iter
    (fun f ->
      Printf.bprintf b "inv %s %s %d %s\n" (Report.site f) (Report.read_site f) f.Report.found_at
        (match f.Report.verdict with
        | Some v -> Pmrace.Post_failure.verdict_slug v
        | None -> "pending"))
    (Report.invariant_findings s.report);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let static_inv_session target ~campaigns ~seed =
  Fuzzer.run target
    (Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:seed ~static_prepass:true
       ~invariants:true ())

let test_static_inv_golden_figure1 () =
  let s = static_inv_session Workloads.Figure1.target ~campaigns:60 ~seed:3 in
  Alcotest.(check int) "campaigns" 60 s.campaigns_run;
  Alcotest.(check string) "session golden" "c0d97b2290bcf746" (static_inv_golden s)

let test_static_inv_golden_pclht () =
  let s = static_inv_session Workloads.Pclht.target ~campaigns:150 ~seed:5 in
  Alcotest.(check int) "campaigns" 150 s.campaigns_run;
  Alcotest.(check string) "session golden" "20433f51ff82a1db" (static_inv_golden s)

let test_validate_flag () =
  let s = Fuzzer.run Workloads.Figure1.target { (cfg 30) with validate = false } in
  let _, _, _, pending = Report.verdict_summary s.report Runtime.Candidates.Inter in
  let fp, wl, bugs, _ = Report.verdict_summary s.report Runtime.Candidates.Inter in
  Alcotest.(check int) "no verdicts without validation" 0 (fp + wl + bugs);
  Alcotest.(check bool) "findings pending" true (pending >= 0)

let test_annotations_counted () =
  let s = Fuzzer.run Workloads.Figure1.target (cfg 5) in
  Alcotest.(check int) "one annotation (the lock g)" 1 s.annotations

let test_without_checkpoint () =
  let s = Fuzzer.run Workloads.Figure1.target { (cfg 20) with use_checkpoint = false } in
  Alcotest.(check int) "campaigns" 20 s.campaigns_run

let test_deterministic_sessions () =
  let run () =
    let s = Fuzzer.run Workloads.Figure1.target (cfg 30) in
    ( Report.candidate_count s.report Runtime.Candidates.Inter,
      Report.inconsistency_count s.report Runtime.Candidates.Inter,
      Pmrace.Alias_cov.count s.alias )
  in
  Alcotest.(check bool) "sessions replay identically" true (run () = run ())

(* One worker past the domain limit is refused before the session starts:
   no event is emitted, so no set-up ran and no worker was built. *)
let test_worker_bound () =
  let obs = Obs.Events.create () and events = ref 0 in
  Obs.Events.attach obs (fun _ -> incr events);
  let cfg = Fuzzer.Config.make ~max_campaigns:1 ~workers:(Fuzzer.max_workers + 1) () in
  (match Fuzzer.run ~obs Workloads.Figure1.target cfg with
  | _ -> Alcotest.fail "128 workers ran"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing started" 0 !events

let suite =
  [
    Alcotest.test_case "finds the Figure 1 bugs" `Quick test_finds_figure1_bugs;
    Alcotest.test_case "respects campaign budget" `Quick test_respects_budget;
    Alcotest.test_case "timeline monotonic" `Quick test_timeline_monotonic;
    Alcotest.test_case "all modes run" `Quick test_modes_run;
    Alcotest.test_case "ablations run" `Quick test_ablations_run;
    Alcotest.test_case "static + invariants golden (figure1)" `Quick
      test_static_inv_golden_figure1;
    Alcotest.test_case "static + invariants golden (p-clht)" `Slow test_static_inv_golden_pclht;
    Alcotest.test_case "validate flag" `Quick test_validate_flag;
    Alcotest.test_case "annotations counted" `Quick test_annotations_counted;
    Alcotest.test_case "without checkpoint" `Quick test_without_checkpoint;
    Alcotest.test_case "deterministic sessions" `Quick test_deterministic_sessions;
    Alcotest.test_case "workers beyond the domain limit refused" `Quick test_worker_bound;
  ]
