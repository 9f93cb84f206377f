(* End-to-end integration: full fuzzing sessions against each tested PM
   system must rediscover the paper's seeded bugs with the paper's
   false-positive profile (Tables 2/3). *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Candidates = Runtime.Candidates

let session (target : Pmrace.Target.t) ~campaigns ~seed =
  Fuzzer.run target
    (Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:seed ())

let check_bugs_found target session ids =
  let found = Fuzzer.found_known_bugs session target in
  List.iter
    (fun id ->
      match List.find_opt (fun ((kb : Pmrace.Target.known_bug), _) -> kb.kb_id = id) found with
      | Some (_, true) -> ()
      | Some (kb, false) -> Alcotest.failf "bug %d (%s) not found" id kb.kb_description
      | None -> Alcotest.failf "bug %d not registered" id)
    ids

let test_pclht () =
  let t = Workloads.Pclht.target in
  let s = session t ~campaigns:400 ~seed:5 in
  check_bugs_found t s [ 1; 2; 3; 4; 5 ];
  (* The sync-inconsistency profile of Table 3: 4 annotations, 4 events,
     3 validated FPs (resize/gc/version locks), 1 bug (bucket locks). *)
  Alcotest.(check int) "annotations" 4 s.annotations;
  Alcotest.(check int) "sync events" 4 (List.length (Report.sync_findings s.report));
  let fp, _, bugs, _ = Report.sync_summary s.report in
  Alcotest.(check int) "sync validated FPs" 3 fp;
  Alcotest.(check int) "sync bugs" 1 bugs

let test_cceh () =
  let t = Workloads.Cceh.target in
  let s = session t ~campaigns:250 ~seed:5 in
  check_bugs_found t s [ 6; 7 ];
  (* Table 3: CCEH has no Inter-thread Inconsistency at all. *)
  Alcotest.(check int) "no inter inconsistencies" 0
    (Report.inconsistency_count s.report Candidates.Inter);
  Alcotest.(check int) "2 annotations" 2 s.annotations;
  Alcotest.(check int) "1 sync event" 1 (List.length (Report.sync_findings s.report))

let test_fastfair () =
  let t = Workloads.Fastfair.target in
  let s = session t ~campaigns:350 ~seed:5 in
  check_bugs_found t s [ 8 ];
  (* FAST-FAIR reports many inconsistencies its lazy recovery tolerates. *)
  Alcotest.(check bool) "many candidates" true
    (Report.candidate_count s.report Candidates.Inter >= 10);
  Alcotest.(check int) "no annotations" 0 s.annotations

let test_clevel () =
  let t = Workloads.Clevel.target in
  let s = session t ~campaigns:150 ~seed:5 in
  (* No bugs; all inter inconsistencies are whitelisted FPs (PMDK tx). *)
  let fp, wl, bugs, pending = Report.verdict_summary s.report Candidates.Inter in
  Alcotest.(check int) "no inter bugs" 0 bugs;
  Alcotest.(check int) "no pending" 0 pending;
  Alcotest.(check bool) "whitelist filtered the tx inconsistencies" true (wl >= 1);
  Alcotest.(check int) "no sync findings" 0 (List.length (Report.sync_findings s.report));
  ignore fp;
  Alcotest.(check (list Alcotest.string)) "no bug groups" []
    (List.map (fun g -> g.Report.bg_site) (Report.bug_groups s.report))

let test_memcached () =
  let t = Workloads.Memcached.target in
  let s = session t ~campaigns:500 ~seed:9 in
  check_bugs_found t s [ 9; 10; 11; 12; 13; 14 ];
  (* The index/LRU rebuild turns many link inconsistencies into validated
     false positives — the dominant validated-FP count of Table 3. *)
  let fp, _, _, _ = Report.verdict_summary s.report Candidates.Inter in
  Alcotest.(check bool) "validation filters many FPs" true (fp >= 10);
  Alcotest.(check int) "no annotations" 0 s.annotations

let test_candidate_ranking () =
  (* Table 3's ranking of inter-thread candidates:
     memcached, fast-fair >> p-clht, cceh > clevel. *)
  let count target campaigns seed =
    Report.candidate_count (session target ~campaigns ~seed).Fuzzer.report Candidates.Inter
  in
  let mc = count Workloads.Memcached.target 300 9 in
  let ff = count Workloads.Fastfair.target 300 5 in
  let clht = count Workloads.Pclht.target 300 5 in
  let clevel = count Workloads.Clevel.target 150 5 in
  Alcotest.(check bool)
    (Printf.sprintf "mc=%d ff=%d clht=%d clevel=%d" mc ff clht clevel)
    true
    (mc > clevel && ff > clevel && ff >= clht)

let suite =
  [
    Alcotest.test_case "p-clht session (bugs 1-5)" `Slow test_pclht;
    Alcotest.test_case "cceh session (bugs 6-7)" `Slow test_cceh;
    Alcotest.test_case "fast-fair session (bug 8)" `Slow test_fastfair;
    Alcotest.test_case "clevel session (no bugs)" `Slow test_clevel;
    Alcotest.test_case "memcached session (bugs 9-14)" `Slow test_memcached;
    Alcotest.test_case "candidate count ranking" `Slow test_candidate_ranking;
  ]
