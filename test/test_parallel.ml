(* The §5 worker pool on OCaml 5 domains: domain-safety of the runtime's
   process-global registries, budget accounting under parallel reservation,
   and the two determinism guarantees — [workers = 1] is bit-identical to
   the sequential fuzzer (golden fingerprints recorded from the
   pre-refactor loop), and [workers = 4] finds the same unique-bug set. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Instr = Runtime.Instr
module Dram = Runtime.Dram

(* ------------------------------------------------------------------ *)
(* Instr: concurrent lazy registration across domains.  Half the names are
   shared between all domains (the racy case that corrupted the plain
   Hashtbls), half are domain-private. *)

let test_instr_domain_stress () =
  let domains = 4 and per_domain = 200 and shared = 100 in
  let register d =
    let mine =
      List.init per_domain (fun i ->
          let n = Printf.sprintf "stress:d%d:%d" d i in
          (n, Instr.site n))
    in
    let ours =
      List.init shared (fun i ->
          let n = Printf.sprintf "stress:shared:%d" i in
          (n, Instr.site n))
    in
    mine @ ours
  in
  let spawned = List.init domains (fun d -> Domain.spawn (fun () -> register d)) in
  let all = List.concat_map Domain.join spawned in
  (* Every registration is stable: re-querying the name gives the same id,
     and the id maps back to the name. *)
  List.iter
    (fun (n, id) ->
      Alcotest.(check int) "site memoised" (Instr.to_int id) (Instr.to_int (Instr.site n));
      Alcotest.(check string) "name round-trips" n (Instr.name id);
      ignore (Instr.of_int (Instr.to_int id)))
    all;
  (* Distinct names got distinct ids (the registry did not hand out the
     same counter value twice). *)
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (n, id) ->
      match Hashtbl.find_opt tbl (Instr.to_int id) with
      | Some n' -> Alcotest.(check string) "one name per id" n' n
      | None -> Hashtbl.add tbl (Instr.to_int id) n)
    all;
  Alcotest.(check int) "distinct ids for distinct names"
    ((domains * per_domain) + shared)
    (Hashtbl.length tbl)

let test_instr_of_int_unknown () =
  Alcotest.check_raises "of_int rejects unregistered ids"
    (Invalid_argument (Printf.sprintf "Instr.of_int: unknown id %d" max_int)) (fun () ->
      ignore (Instr.of_int max_int))

(* ------------------------------------------------------------------ *)
(* Dram: key allocation is atomic across domains, and stores are
   independent per environment. *)

let test_dram_concurrent_keys () =
  let per_domain = 100 in
  let alloc d =
    List.init per_domain (fun i ->
        (Dram.key ~name:(Printf.sprintf "k:d%d:%d" d i) () : int Dram.key))
  in
  let spawned = List.init 2 (fun d -> Domain.spawn (fun () -> alloc d)) in
  let keys = List.concat_map Domain.join spawned in
  (* Uids must be pairwise distinct: a shared plain ref would hand out
     duplicates under this race, making unrelated keys alias. *)
  let store = Dram.create () in
  List.iteri (fun i k -> Dram.set store k i) keys;
  List.iteri
    (fun i k -> Alcotest.(check (option int)) "keys do not alias" (Some i) (Dram.find store k))
    keys

let test_dram_stores_independent () =
  let k : int Dram.key = Dram.key ~name:"indep" () in
  let a = Dram.create () and b = Dram.create () in
  Dram.set a k 1;
  Alcotest.(check (option int)) "store b unaffected" None (Dram.find b k);
  Dram.set b k 2;
  Alcotest.(check (option int)) "store a keeps its value" (Some 1) (Dram.find a k);
  Alcotest.(check (option int)) "store b keeps its value" (Some 2) (Dram.find b k)

(* ------------------------------------------------------------------ *)
(* Budget accounting: parallel workers reserve campaign slots, so the
   budget is never overshot and the timeline/provenance stay dense. *)

let test_parallel_budget_exact () =
  let s =
    Fuzzer.run Workloads.Figure1.target
      (Fuzzer.Config.make ~max_campaigns:40 ~master_seed:3 ~workers:4 ())
  in
  Alcotest.(check int) "campaigns exactly at budget" 40 s.campaigns_run;
  Alcotest.(check int) "one timeline point per campaign" 40 (List.length s.timeline);
  Alcotest.(check int) "provenance per campaign" 40 (Hashtbl.length s.provenance);
  Alcotest.(check (list int)) "timeline dense and ordered"
    (List.init 40 (fun i -> i + 1))
    (List.map (fun (p : Fuzzer.timeline_point) -> p.tp_campaign) s.timeline)

(* ------------------------------------------------------------------ *)
(* Determinism.  Golden fingerprints below were recorded from the
   sequential (pre-worker-pool) fuzzing loop; [workers = 1] must keep
   reproducing them bit for bit.  The provenance hash folds every
   campaign's scheduler seed in reservation order, so it pins the entire
   session's RNG history, not just aggregates. *)

let prov_hash (s : Fuzzer.session) =
  Hashtbl.fold (fun k (p : Fuzzer.provenance) acc -> (k, p.p_sched_seed) :: acc) s.provenance []
  |> List.sort compare
  |> List.fold_left (fun h (k, v) -> (h * 1000003 + k + v) land 0x3FFFFFFF) 0

let bug_ids (s : Fuzzer.session) =
  List.map
    (fun (g : Report.bug_group) ->
      ((match g.bg_kind with `Inter -> "Inter" | `Intra -> "Intra" | `Sync -> "Sync"), g.bg_site))
    (Report.bug_groups s.report)
  |> List.sort_uniq compare

let session target budget seed workers =
  (* Deliberately constructs the config as a record: the record stays a
     public (if deprecated-for-construction) API, and the golden sessions
     below prove a record-built config behaves exactly like Config.make. *)
  Fuzzer.run target
    {
      Fuzzer.default_config with
      max_campaigns = budget;
      master_seed = seed;
      workers;
    }

let test_workers1_bit_identical_figure1 () =
  let s = session Workloads.Figure1.target 40 3 1 in
  Alcotest.(check int) "campaigns" 40 s.campaigns_run;
  Alcotest.(check int) "alias bits" 24 (Pmrace.Alias_cov.count s.alias);
  Alcotest.(check int) "branch bits" 2 (Pmrace.Branch_cov.count s.branch);
  Alcotest.(check int) "inter candidates" 3
    (Report.candidate_count s.report Runtime.Candidates.Inter);
  Alcotest.(check int) "inter inconsistencies" 1
    (Report.inconsistency_count s.report Runtime.Candidates.Inter);
  Alcotest.(check (list (pair string string)))
    "bug groups"
    [ ("Inter", "figure1.c:store_x"); ("Sync", "figure1.c:g") ]
    (bug_ids s);
  (match Hashtbl.find_opt s.provenance 0 with
  | Some p -> Alcotest.(check int) "first sched seed" 250784763 p.Fuzzer.p_sched_seed
  | None -> Alcotest.fail "missing provenance for campaign 0");
  Alcotest.(check int) "provenance hash (full RNG history)" 78631009 (prov_hash s)

let test_workers1_bit_identical_pclht () =
  let s = session Workloads.Pclht.target 150 5 1 in
  Alcotest.(check int) "campaigns" 150 s.campaigns_run;
  (* The alias-bitmap count is specific to this executable: AFL-style
     bitmaps hash raw site ids, and toplevel [Instr.site] registrations in
     other linked test modules shift the workloads' ids (here that costs
     one extra collision vs the standalone binary's 445).  Re-capture if a
     test module gains toplevel sites; the id-independent fingerprints
     below (bug set, candidate counts, provenance hash) must never move. *)
  Alcotest.(check int) "alias bits" 446 (Pmrace.Alias_cov.count s.alias);
  Alcotest.(check int) "branch bits" 9 (Pmrace.Branch_cov.count s.branch);
  Alcotest.(check int) "inter candidates" 6
    (Report.candidate_count s.report Runtime.Candidates.Inter);
  Alcotest.(check int) "intra candidates" 1
    (Report.candidate_count s.report Runtime.Candidates.Intra);
  Alcotest.(check (list (pair string string)))
    "bug groups"
    [
      ("Inter", "clht_lb_res.c:785"); ("Intra", "clht_lb_res.c:789"); ("Sync", "clht_lb_res.c:429");
    ]
    (bug_ids s);
  Alcotest.(check int) "provenance hash (full RNG history)" 661670335 (prov_hash s)

let test_bug_set_figure1_1_vs_4 () =
  let s1 = session Workloads.Figure1.target 40 3 1 in
  let s4 = session Workloads.Figure1.target 40 3 4 in
  Alcotest.(check (list (pair string string))) "same unique-bug set" (bug_ids s1) (bug_ids s4)

let test_bug_set_pclht_1_vs_4 () =
  let s1 = session Workloads.Pclht.target 150 5 1 in
  let s4 = session Workloads.Pclht.target 150 5 4 in
  Alcotest.(check (list (pair string string))) "same unique-bug set" (bug_ids s1) (bug_ids s4)

let suite =
  [
    Alcotest.test_case "instr registry under domain races" `Quick test_instr_domain_stress;
    Alcotest.test_case "instr of_int rejects unknown" `Quick test_instr_of_int_unknown;
    Alcotest.test_case "dram keys allocated across domains" `Quick test_dram_concurrent_keys;
    Alcotest.test_case "dram stores independent" `Quick test_dram_stores_independent;
    Alcotest.test_case "parallel budget exact" `Quick test_parallel_budget_exact;
    Alcotest.test_case "workers=1 bit-identical (figure1 golden)" `Quick
      test_workers1_bit_identical_figure1;
    Alcotest.test_case "workers=1 bit-identical (p-clht golden)" `Slow
      test_workers1_bit_identical_pclht;
    Alcotest.test_case "figure1: workers=1 vs 4 same bugs" `Quick test_bug_set_figure1_1_vs_4;
    Alcotest.test_case "p-clht: workers=1 vs 4 same bugs" `Slow test_bug_set_pclht_1_vs_4;
  ]
