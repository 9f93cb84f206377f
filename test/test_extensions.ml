(* The extensions beyond the core pipeline: eADR mode (§6.6), the
   additional checkers (§4.3, as lint classes), worker-pool dispatch (§5), and the detailed
   bug reports (§4.1 step 6). *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Analyzer = Analysis.Analyzer
module Lint = Analysis.Lint

(* --- eADR ------------------------------------------------------------ *)

let eadr_env () =
  let env = Env.create ~pool_words:256 () in
  Pmem.Pool.set_eadr env.pool true;
  env

let test_eadr_store_durable () =
  let env = eadr_env () in
  let ctx = Env.ctx env ~tid:0 in
  let i = Instr.site "ext:w" in
  Mem.store ctx ~instr:i (Tval.of_int 10) (Tval.of_int 42);
  Alcotest.(check bool) "never dirty" false (Pmem.Pool.is_dirty env.pool 10);
  Alcotest.(check int64) "durable at once" 42L
    (Pmem.Pool.image_word (Pmem.Pool.crash_image env.pool) 10)

let test_eadr_no_candidates () =
  let env = eadr_env () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  let i = Instr.site "ext:w" in
  Mem.store c0 ~instr:i (Tval.of_int 10) (Tval.of_int 42);
  let v = Mem.load c1 ~instr:i (Tval.of_int 10) in
  Alcotest.(check bool) "no taint" false (Tval.is_tainted v);
  Alcotest.(check int) "no candidates" 0
    (Runtime.Candidates.dynamic_count (Runtime.Checkers.candidates env.checkers))

let test_eadr_sync_events_still_fire () =
  let env = eadr_env () in
  Env.annotate_sync env ~name:"ext:lock" ~addr:16 ~len:1 ~init:0L;
  let ctx = Env.ctx env ~tid:0 in
  Mem.store ctx ~instr:(Instr.site "ext:lock") (Tval.of_int 16) Tval.one;
  Alcotest.(check int) "sync event without any flush" 1
    (List.length (Runtime.Checkers.sync_events env.checkers))

let test_eadr_session_figure1 () =
  (* Under eADR, Figure 1's inter-thread bug vanishes and the lock bug
     remains — exactly §6.6's claim. *)
  let cfg = Fuzzer.Config.make ~max_campaigns:40 ~master_seed:3 ~eadr:true () in
  let s = Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check int) "no inter inconsistencies" 0
    (Report.inconsistency_count s.report Runtime.Candidates.Inter);
  let _, _, sync_bugs, _ = Report.sync_summary s.report in
  Alcotest.(check int) "the sync bug survives eADR" 1 sync_bugs

(* --- §4.3 checkers: the lint pass's redundant-op and dirty-at-exit classes *)

(* Run [f] on a fresh environment under an analyzer with the taxonomy
   classes on. *)
let analyze f =
  let env = Env.create ~pool_words:256 () in
  let az =
    Analyzer.create ~cfg:{ Analyzer.default_config with taxonomy = true } ()
  in
  Analyzer.attach az `Normal env;
  f (Env.ctx env ~tid:0);
  Analyzer.finish az `Normal;
  Analyzer.result az

(* (site, dynamic occurrences) of one lint class. *)
let findings_of kind (r : Analyzer.result) =
  List.filter_map
    (fun (f : Lint.finding) ->
      if f.f_kind = kind then Some (Instr.name f.f_site, f.f_count) else None)
    r.r_findings

let node (r : Analyzer.result) site =
  match Analysis.Site_graph.node r.r_graph (Instr.site site) with
  | Some n -> n
  | None -> Alcotest.failf "no site-graph node for %s" site

let test_redundant_flush () =
  let r =
    analyze (fun ctx ->
        let i = Instr.site "ext:flush" in
        Mem.store ctx ~instr:i (Tval.of_int 10) Tval.one;
        Mem.clwb ctx ~instr:i (Tval.of_int 10) (* useful *);
        Mem.clwb ctx ~instr:i (Tval.of_int 10) (* redundant: line already clean *))
  in
  Alcotest.(check int) "flushes" 2 (node r "ext:flush").n_flushes;
  Alcotest.(check (list (pair string int))) "one redundant flush" [ ("ext:flush", 1) ]
    (findings_of Lint.Redundant_flush r)

let test_redundant_fence () =
  let r =
    analyze (fun ctx ->
        let i = Instr.site "ext:fence" in
        Mem.store ctx ~instr:i (Tval.of_int 10) Tval.one;
        Mem.clwb ctx ~instr:i (Tval.of_int 10);
        Mem.sfence ctx ~instr:i (* useful: drains the flush *);
        Mem.sfence ctx ~instr:i (* redundant: nothing flushed since the last fence *);
        Mem.movnt ctx ~instr:i (Tval.of_int 11) Tval.one;
        Mem.sfence ctx ~instr:i (* useful: persists the non-temporal store *))
  in
  Alcotest.(check int) "fences" 3 (node r "ext:fence").n_fences;
  Alcotest.(check (list (pair string int))) "one redundant fence" [ ("ext:fence", 1) ]
    (findings_of Lint.Redundant_fence r)

let test_unflushed_at_exit () =
  let r =
    analyze (fun ctx ->
        let iw = Instr.site "ext:unflushed" in
        Mem.store ctx ~instr:iw (Tval.of_int 10) Tval.one;
        Mem.store ctx ~instr:iw (Tval.of_int 11) Tval.one;
        Mem.store ctx ~instr:(Instr.site "ext:flushed") (Tval.of_int 20) Tval.one;
        Mem.persist ctx ~instr:(Instr.site "ext:flushed") (Tval.of_int 20))
  in
  Alcotest.(check (list (pair string int))) "one writer site with 2 dirty words"
    [ ("ext:unflushed", 2) ]
    (findings_of Lint.Unflushed_at_exit r)

(* --- workers --------------------------------------------------------- *)

let test_workers_share_budget () =
  let cfg = Fuzzer.Config.make ~max_campaigns:30 ~master_seed:3 ~workers:4 () in
  let s = Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check int) "budget respected across workers" 30 s.campaigns_run

let test_workers_find_bugs () =
  let cfg = Fuzzer.Config.make ~max_campaigns:60 ~master_seed:3 ~workers:3 () in
  let s = Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check bool) "bugs found with a worker pool" true
    (List.for_all snd (Fuzzer.found_known_bugs s Workloads.Figure1.target))

(* --- bug reports ------------------------------------------------------ *)

let test_bug_report_renders () =
  let cfg = Fuzzer.Config.make ~max_campaigns:40 ~master_seed:3 () in
  let s = Fuzzer.run Workloads.Figure1.target cfg in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Pmrace.Bug_report.render_bugs ppf s;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let has needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the write site" true (has "figure1.c:store_x");
  Alcotest.(check bool) "mentions reproduction inputs" true (has "scheduler seed");
  Alcotest.(check bool) "mentions the sync variable" true (has "figure1.c:g");
  Alcotest.(check bool) "numbered reports" true (has "--- report 1 ---")

let test_provenance_recorded () =
  let cfg = Fuzzer.Config.make ~max_campaigns:10 ~master_seed:3 () in
  let s = Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check int) "provenance per campaign" 10 (Hashtbl.length s.provenance)

(* --- extended memcached commands -------------------------------------- *)

let test_new_commands_parse () =
  let ok s = match Workloads.Memcached_proto.parse s with Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "gets" true (ok "gets k1 k2\r\n");
  Alcotest.(check bool) "cas" true (ok "cas k1 0 0 3 42\r\nabc\r\n");
  Alcotest.(check bool) "touch" true (ok "touch k1 100\r\n");
  Alcotest.(check bool) "flush_all" true (ok "flush_all\r\n");
  Alcotest.(check bool) "stats" true (ok "stats\r\n");
  Alcotest.(check bool) "verbosity" true (ok "verbosity 1\r\n");
  Alcotest.(check bool) "cas arg error" false (ok "cas k1 0 0 3\r\nabc\r\n");
  Alcotest.(check bool) "touch arg error" false (ok "touch k1\r\n")

let test_new_commands_execute () =
  let target = Workloads.Memcached.target in
  let env = Pmrace.Engine.checkout (Pmrace.Engine.create target) in
  let ctx = Env.ctx env ~tid:0 in
  let run s = ignore (Workloads.Memcached.process_command ctx s) in
  run "set k1 0 0 3\r\nabc\r\n";
  run "gets k1\r\n";
  run "touch k1 50\r\n";
  run "cas k1 0 0 3 7\r\nxyz\r\n";
  run "stats\r\n";
  Alcotest.(check bool) "k1 present before flush_all" true
    (Workloads.Memcached.lookup_after_recovery env 1 <> None);
  run "flush_all\r\n";
  Alcotest.(check bool) "flush_all emptied the index" true
    (Workloads.Memcached.lookup_after_recovery env 1 = None)

let suite =
  [
    Alcotest.test_case "eadr: stores durable at once" `Quick test_eadr_store_durable;
    Alcotest.test_case "eadr: no candidates" `Quick test_eadr_no_candidates;
    Alcotest.test_case "eadr: sync events still fire" `Quick test_eadr_sync_events_still_fire;
    Alcotest.test_case "eadr: figure1 session (6.6)" `Quick test_eadr_session_figure1;
    Alcotest.test_case "lint: redundant flush checker" `Quick test_redundant_flush;
    Alcotest.test_case "lint: redundant fence checker" `Quick test_redundant_fence;
    Alcotest.test_case "lint: unflushed at exit" `Quick test_unflushed_at_exit;
    Alcotest.test_case "workers: shared budget" `Quick test_workers_share_budget;
    Alcotest.test_case "workers: find bugs" `Quick test_workers_find_bugs;
    Alcotest.test_case "bug reports render" `Quick test_bug_report_renders;
    Alcotest.test_case "provenance recorded" `Quick test_provenance_recorded;
    Alcotest.test_case "proto: new commands parse" `Quick test_new_commands_parse;
    Alcotest.test_case "memcached: new commands execute" `Quick test_new_commands_execute;
  ]
