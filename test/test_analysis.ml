(* The offline persistency analyzer: the site graph and its
   possible-pair denominator, the lifecycle FSM / lint pass, and the
   pmrace-analyze driver end-to-end (Figure 1, and every target's pinned
   report). *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Site_graph = Analysis.Site_graph
module Alias_pairs = Analysis.Alias_pairs
module Lint = Analysis.Lint
module Analyzer = Analysis.Analyzer

(* Record an execution's events in program order. *)
let recorder env =
  let evs = ref [] in
  Env.add_listener env (fun ev -> evs := ev :: !evs);
  fun () -> List.rev !evs

(* --- site graph -------------------------------------------------------- *)

(* A two-thread trace: t0 stores and flushes word 10; t1 loads it. *)
let sample_trace () =
  let env = Env.create ~pool_words:256 () in
  let events = recorder env in
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let iw = Instr.site "an:w" and ir = Instr.site "an:r" and ifl = Instr.site "an:f" in
  Mem.store t0 ~instr:iw (Tval.of_int 10) Tval.one;
  ignore (Mem.load t1 ~instr:ir (Tval.of_int 10));
  Mem.persist t0 ~instr:ifl (Tval.of_int 10);
  (events (), iw, ir, ifl)

let test_site_graph () =
  let events, iw, ir, ifl = sample_trace () in
  let g = Site_graph.create () in
  Site_graph.absorb g events;
  Alcotest.(check int) "one execution" 1 (Site_graph.executions g);
  Alcotest.(check bool) "writer recorded" true (List.mem iw (Site_graph.writers_of g 10));
  Alcotest.(check bool) "reader recorded" true (List.mem ir (Site_graph.readers_of g 10));
  Alcotest.(check (list int)) "shared address" [ 10 ] (Site_graph.shared_addrs g);
  Alcotest.(check bool) "possible pair (w,r)" true
    (List.mem (iw, ir) (Site_graph.possible_pairs g));
  Alcotest.(check bool) "store->flush edge" true (List.mem (iw, ifl) (Site_graph.flush_edges g));
  Alcotest.(check bool) "flush->fence edge" true (List.mem (ifl, ifl) (Site_graph.fence_edges g))

let test_possible_pairs_cross_product () =
  (* Two writers and two readers of one address: 4 possible pairs. *)
  let env = Env.create ~pool_words:256 () in
  let events = recorder env in
  let t0 = Env.ctx env ~tid:0 in
  let w1 = Instr.site "an:w1" and w2 = Instr.site "an:w2" in
  let r1 = Instr.site "an:r1" and r2 = Instr.site "an:r2" in
  Mem.store t0 ~instr:w1 (Tval.of_int 20) Tval.one;
  Mem.store t0 ~instr:w2 (Tval.of_int 20) Tval.one;
  ignore (Mem.load t0 ~instr:r1 (Tval.of_int 20));
  ignore (Mem.load t0 ~instr:r2 (Tval.of_int 20));
  let g = Site_graph.create () in
  Site_graph.absorb g (events ());
  Alcotest.(check int) "4 possible pairs" 4 (Site_graph.possible_count g)

(* --- alias pairs ------------------------------------------------------- *)

let test_alias_pairs_accounting () =
  let t = Alias_pairs.create () in
  let w = Instr.site "an:apw" and r = Instr.site "an:apr" in
  Alias_pairs.add_possible t ~write:w ~read:r;
  Alcotest.(check int) "possible" 1 (Alias_pairs.possible_count t);
  Alcotest.(check int) "achieved 0" 0 (Alias_pairs.achieved_count t);
  Alcotest.(check int) "uncovered 1" 1 (List.length (Alias_pairs.uncovered t));
  Alias_pairs.mark_achieved t ~write:w ~read:r;
  Alias_pairs.mark_achieved t ~write:w ~read:r (* idempotent *);
  Alcotest.(check int) "achieved 1" 1 (Alias_pairs.achieved_count t);
  Alcotest.(check int) "uncovered 0" 0 (List.length (Alias_pairs.uncovered t));
  (* A pair outside the static set counts separately. *)
  Alias_pairs.mark_achieved t ~write:r ~read:w;
  Alcotest.(check int) "achieved still 1" 1 (Alias_pairs.achieved_count t);
  Alcotest.(check int) "beyond static" 1 (Alias_pairs.beyond_static t)

(* --- lint pass --------------------------------------------------------- *)

let test_lint_unflushed_publish () =
  let events, iw, ir, _ = sample_trace () in
  let l = Lint.create () in
  Lint.absorb l events;
  let f =
    List.find_opt (fun (f : Lint.finding) -> f.f_kind = Lint.Unflushed_publish) (Lint.findings l)
  in
  match f with
  | Some f ->
      Alcotest.(check bool) "write site" true (f.f_write_site = Some iw);
      Alcotest.(check bool) "read site" true (Instr.equal f.f_site ir);
      Alcotest.(check bool) "high severity" true (f.f_severity = Lint.High)
  | None -> Alcotest.fail "expected an unflushed-store-published finding"

let test_lint_clean_when_persisted_first () =
  (* Persist before the cross-thread load: no publish finding. *)
  let env = Env.create ~pool_words:256 () in
  let events = recorder env in
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let i = Instr.site "an:clean" in
  Mem.store t0 ~instr:i (Tval.of_int 10) Tval.one;
  Mem.persist t0 ~instr:i (Tval.of_int 10);
  ignore (Mem.load t1 ~instr:i (Tval.of_int 10));
  let l = Lint.create () in
  Lint.absorb l (events ());
  Alcotest.(check bool) "no publish findings" true
    (List.for_all
       (fun (f : Lint.finding) ->
         f.f_kind <> Lint.Unflushed_publish && f.f_kind <> Lint.Unfenced_publish)
       (Lint.findings l))

let test_lint_redundant_ops () =
  let env = Env.create ~pool_words:256 () in
  let events = recorder env in
  let ctx = Env.ctx env ~tid:0 in
  let i = Instr.site "an:red" in
  Mem.store ctx ~instr:i (Tval.of_int 10) Tval.one;
  Mem.persist ctx ~instr:i (Tval.of_int 10);
  Mem.clwb ctx ~instr:i (Tval.of_int 10) (* line already clean: redundant *);
  Mem.sfence ctx ~instr:i (* drains the redundant flush: not redundant *);
  Mem.sfence ctx ~instr:i (* no flush since previous fence: redundant *);
  let l = Lint.create () in
  Lint.absorb l (events ());
  let kinds = List.map (fun (f : Lint.finding) -> f.f_kind) (Lint.findings l) in
  Alcotest.(check bool) "redundant CLWB" true (List.mem Lint.Redundant_flush kinds);
  Alcotest.(check bool) "redundant SFENCE" true (List.mem Lint.Redundant_fence kinds)

let test_lint_dedup_by_site_pair () =
  (* The same (write, read) pair three times: one finding, count 3. *)
  let env = Env.create ~pool_words:256 () in
  let events = recorder env in
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let iw = Instr.site "an:dw" and ir = Instr.site "an:dr" in
  for _ = 1 to 3 do
    Mem.store t0 ~instr:iw (Tval.of_int 10) Tval.one;
    ignore (Mem.load t1 ~instr:ir (Tval.of_int 10))
  done;
  let l = Lint.create () in
  Lint.absorb l (events ());
  let publishes =
    List.filter (fun (f : Lint.finding) -> f.f_kind = Lint.Unflushed_publish) (Lint.findings l)
  in
  match publishes with
  | [ f ] -> Alcotest.(check int) "3 occurrences" 3 f.f_count
  | l -> Alcotest.failf "expected 1 deduplicated finding, got %d" (List.length l)

(* --- analyzer end-to-end on Figure 1 ----------------------------------- *)

let test_analyze_figure1 () =
  let r = Pmrace.Analyze.run Workloads.Figure1.target in
  let module A = Analysis.Analyzer in
  (* The seeded missing-flush site surfaces as unflushed-store-published. *)
  Alcotest.(check bool) "store_x -> read_x reported" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.f_kind = Lint.Unflushed_publish
         && f.f_write_site = Some (Instr.site "figure1.c:store_x")
         && Instr.equal f.f_site (Instr.site "figure1.c:read_x"))
       r.A.r_findings);
  (* Coverage has a denominator, and achieved never exceeds it. *)
  Alcotest.(check bool) "possible >= achieved" true
    (Alias_pairs.possible_count r.A.r_pairs >= Alias_pairs.achieved_count r.A.r_pairs);
  Alcotest.(check bool) "possible pairs exist" true (Alias_pairs.possible_count r.A.r_pairs > 0)

let test_analyze_achieved_subset_all_targets () =
  (* achieved <= possible on every registry target (cheap config). *)
  List.iter
    (fun (t : Pmrace.Target.t) ->
      let cfg = { Pmrace.Analyze.default_config with seeds = 2; scheds_per_seed = 1 } in
      let r = Pmrace.Analyze.run ~cfg t in
      let module A = Analysis.Analyzer in
      if Alias_pairs.possible_count r.A.r_pairs < Alias_pairs.achieved_count r.A.r_pairs then
        Alcotest.failf "%s: achieved %d > possible %d" t.name
          (Alias_pairs.achieved_count r.A.r_pairs)
          (Alias_pairs.possible_count r.A.r_pairs))
    Workloads.Registry.with_examples

(* The report of every registered target under the full and the --basic
   configuration, pinned by fixtures/analyze/TARGET.{full,basic}.txt. *)
let report_cases =
  List.concat_map
    (fun (t : Pmrace.Target.t) ->
      [ (t, "full", Pmrace.Analyze.full_config); (t, "basic", Pmrace.Analyze.default_config) ])
    (Workloads.Registry.with_examples @ Workloads.Registry.planted)

let report r = Format.asprintf "%a" Analyzer.pp_report r

let test_analyze_reports_pinned () =
  let dir = if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures" in
  List.iter
    (fun ((t : Pmrace.Target.t), tag, cfg) ->
      let name = Printf.sprintf "%s.%s.txt" t.name tag in
      Alcotest.(check string) name
        (In_channel.with_open_bin (Filename.concat (Filename.concat dir "analyze") name)
           In_channel.input_all)
        (report (Pmrace.Analyze.run ~cfg t)))
    report_cases

(* Replaying Analyze.record's event lists through a fresh analyzer gives
   the result of the streaming run.  Recording keeps no recovery runs, so
   the configurations leave the taxonomy classes off. *)
let test_record_replay_matches_streaming () =
  let no_recovery = { Pmrace.Analyze.full_analysis with taxonomy = false } in
  List.iter
    (fun (t : Pmrace.Target.t) ->
      List.iter
        (fun analysis ->
          let cfg = { Pmrace.Analyze.default_config with analysis } in
          let streamed = Pmrace.Analyze.run ~cfg t in
          let az = Analyzer.create ~cfg:analysis () in
          List.iter (Analyzer.absorb az) (Pmrace.Analyze.record ~cfg t);
          let replayed = Analyzer.result az in
          Alcotest.(check string) (t.name ^ ": report") (report streamed) (report replayed);
          Alcotest.(check bool) (t.name ^ ": findings") true
            (streamed.r_findings = replayed.r_findings);
          Alcotest.(check bool) (t.name ^ ": invariants") true
            (streamed.r_invariants = replayed.r_invariants);
          Alcotest.(check bool) (t.name ^ ": site graph") true
            (Site_graph.nodes streamed.r_graph = Site_graph.nodes replayed.r_graph
            && Site_graph.flush_edges streamed.r_graph = Site_graph.flush_edges replayed.r_graph
            && Site_graph.fence_edges streamed.r_graph = Site_graph.fence_edges replayed.r_graph);
          Alcotest.(check int) (t.name ^ ": executions") streamed.r_executions
            replayed.r_executions)
        [ Analyzer.default_config; no_recovery ])
    (Workloads.Registry.with_examples @ Workloads.Registry.planted)

(* --- fuzzer integration ------------------------------------------------ *)

let test_fuzzer_prepass_denominator () =
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:10 ~master_seed:3 ~static_prepass:true ()
  in
  let s = Pmrace.Fuzzer.run Workloads.Figure1.target cfg in
  (match Pmrace.Alias_cov.possible s.alias with
  | Some p ->
      Alcotest.(check bool) "denominator installed" true (p > 0);
      Alcotest.(check bool) "achieved <= possible" true
        (Pmrace.Alias_cov.achieved_site_pairs s.alias <= p)
  | None -> Alcotest.fail "expected a static denominator");
  Alcotest.(check bool) "session carries the pre-pass" true (s.static <> None);
  Alcotest.(check bool) "lint findings attached to the report" true
    (Pmrace.Report.lint_findings s.report <> [])

let test_fuzzer_prepass_off () =
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:5 ~master_seed:3 ~static_prepass:false ()
  in
  let s = Pmrace.Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check bool) "no denominator" true (Pmrace.Alias_cov.possible s.alias = None);
  Alcotest.(check bool) "no pre-pass result" true (s.static = None)

(* The pre-pass runs on the session's checkpoint: the results match a
   pre-pass that initialises the target itself, and a whole session
   (checkpoint, pre-pass, campaigns) runs the target's init exactly once. *)
let test_prepass_shares_checkpoint () =
  List.iter
    (fun (t : Pmrace.Target.t) ->
      let analysis = { Pmrace.Analyze.full_analysis with invariants = true } in
      let own = Pmrace.Analyze.prepass ~analysis t in
      let shared =
        Pmrace.Analyze.prepass ~analysis ~checkpoint:(Pmrace.Engine.checkpoint t) t
      in
      Alcotest.(check bool)
        (t.name ^ ": same possible pairs")
        true
        (Alias_pairs.possible own.r_pairs = Alias_pairs.possible shared.r_pairs);
      Alcotest.(check bool) (t.name ^ ": same findings") true (own.r_findings = shared.r_findings);
      Alcotest.(check bool)
        (t.name ^ ": same invariants")
        true
        (own.r_invariants = shared.r_invariants);
      Alcotest.(check int) (t.name ^ ": same executions") own.r_executions shared.r_executions)
    Workloads.Registry.with_examples;
  let inits = ref 0 in
  let base = Workloads.Figure1.target in
  let counted =
    {
      base with
      init =
        (fun env ->
          incr inits;
          base.init env);
    }
  in
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:10 ~master_seed:3 ~static_prepass:true
      ~invariants:true ()
  in
  ignore (Pmrace.Fuzzer.run counted cfg);
  Alcotest.(check int) "target initialised once per session" 1 !inits

let test_seed_priority_scored () =
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~master_seed:3 ~static_prepass:true ()
  in
  let s = Pmrace.Fuzzer.run Workloads.Figure1.target cfg in
  ignore s;
  (* Priorities are written onto seeds as campaigns complete; the recorded
     provenance seeds must carry consistent (non-negative) scores. *)
  Hashtbl.iter
    (fun _ (p : Pmrace.Fuzzer.provenance) ->
      Alcotest.(check bool) "priority >= 0" true (Pmrace.Seed.priority p.p_seed >= 0))
    s.provenance

let suite =
  [
    Alcotest.test_case "site graph: nodes and edges" `Quick test_site_graph;
    Alcotest.test_case "site graph: pair cross product" `Quick test_possible_pairs_cross_product;
    Alcotest.test_case "alias pairs: accounting" `Quick test_alias_pairs_accounting;
    Alcotest.test_case "lint: unflushed publish" `Quick test_lint_unflushed_publish;
    Alcotest.test_case "lint: clean when persisted first" `Quick test_lint_clean_when_persisted_first;
    Alcotest.test_case "lint: redundant CLWB/SFENCE" `Quick test_lint_redundant_ops;
    Alcotest.test_case "lint: dedup by site pair" `Quick test_lint_dedup_by_site_pair;
    Alcotest.test_case "analyze: figure1 end-to-end" `Quick test_analyze_figure1;
    Alcotest.test_case "analyze: achieved <= possible on all targets" `Slow
      test_analyze_achieved_subset_all_targets;
    Alcotest.test_case "analyze: reports pinned for every target" `Quick
      test_analyze_reports_pinned;
    Alcotest.test_case "analyze: record replay matches streaming" `Quick
      test_record_replay_matches_streaming;
    Alcotest.test_case "fuzzer: pre-pass denominator" `Quick test_fuzzer_prepass_denominator;
    Alcotest.test_case "fuzzer: pre-pass off" `Quick test_fuzzer_prepass_off;
    Alcotest.test_case "fuzzer: pre-pass shares the checkpoint" `Quick
      test_prepass_shares_checkpoint;
    Alcotest.test_case "fuzzer: seed priorities" `Quick test_seed_priority_scored;
  ]
