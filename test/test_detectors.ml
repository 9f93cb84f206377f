(* The second-generation detectors (PR 6): taxonomy lint classes
   (double-flush, cross-region ordering, end-of-trace residue, missing
   recovery-path flush), likely-invariant mining/checking, the planted
   ground-truth workload, the fuzzer's violation monitor, and the v2
   artifact schema.

   No toplevel [Instr.site] calls: registering sites at module link time
   shifts every workload site id and breaks the pinned coverage goldens
   in test_parallel.ml.  All sites are registered inside test bodies
   ([Instr.site] is idempotent per name). *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Lifecycle = Analysis.Lifecycle
module Lint = Analysis.Lint
module Inv = Analysis.Invariants
module Analyzer = Analysis.Analyzer
module Analyze = Pmrace.Analyze

(* Record a synthetic trace by running [f ctx0 ctx1] over a fresh env. *)
let record_trace f =
  let env = Env.create ~pool_words:1024 () in
  let events = ref [] in
  Env.add_listener env (fun ev -> events := ev :: !events);
  f (Env.ctx env ~tid:0) (Env.ctx env ~tid:1);
  List.rev !events

let kinds_of l = List.map (fun (f : Lint.finding) -> f.Lint.f_kind) (Lint.findings l)

(* --- taxonomy: double flush -------------------------------------------- *)

let double_flush_trace () =
  record_trace (fun t0 _ ->
      let i = Instr.site "det:df" and i2 = Instr.site "det:df2" in
      Mem.store t0 ~instr:i (Tval.of_int 10) Tval.one;
      Mem.clwb t0 ~instr:i (Tval.of_int 10);
      (* same line, no intervening store: the taxonomy double-flush *)
      Mem.clwb t0 ~instr:i2 (Tval.of_int 10);
      Mem.sfence t0 ~instr:i)

let test_double_flush () =
  let events = double_flush_trace () in
  let l = Lint.create ~taxonomy:true () in
  Lint.absorb l events;
  (match
     List.find_opt (fun (f : Lint.finding) -> f.Lint.f_kind = Lint.Double_flush) (Lint.findings l)
   with
  | Some f ->
      Alcotest.(check bool) "flush site is the second CLWB" true
        (Instr.equal f.Lint.f_site (Instr.site "det:df2"));
      Alcotest.(check bool) "low severity" true (f.Lint.f_severity = Lint.Low)
  | None -> Alcotest.fail "expected a double-flush finding");
  (* A store between the two flushes re-dirties the line: no finding. *)
  let events' =
    record_trace (fun t0 _ ->
        let i = Instr.site "det:df" in
        Mem.store t0 ~instr:i (Tval.of_int 10) Tval.one;
        Mem.clwb t0 ~instr:i (Tval.of_int 10);
        Mem.store t0 ~instr:i (Tval.of_int 10) Tval.one;
        Mem.clwb t0 ~instr:i (Tval.of_int 10);
        Mem.sfence t0 ~instr:i)
  in
  let l' = Lint.create ~taxonomy:true () in
  Lint.absorb l' events';
  Alcotest.(check bool) "no double flush with intervening store" false
    (List.mem Lint.Double_flush (kinds_of l'))

let test_double_flush_gated () =
  let l = Lint.create () in
  Lint.absorb l (double_flush_trace ());
  Alcotest.(check bool) "taxonomy off: no double-flush findings" false
    (List.mem Lint.Double_flush (kinds_of l))

(* --- taxonomy: end-of-trace residue ------------------------------------ *)

let test_dirty_words_residue () =
  (* Words 40 and 80 are on different cache lines: persisting 80 leaves
     40 dirty at the end of the trace. *)
  let i = ref None in
  let events =
    record_trace (fun t0 _ ->
        let iw = Instr.site "det:resid" in
        i := Some iw;
        Mem.store t0 ~instr:iw (Tval.of_int 40) Tval.one;
        Mem.store t0 ~instr:iw (Tval.of_int 80) Tval.one;
        Mem.persist t0 ~instr:iw (Tval.of_int 80))
  in
  let iw = Option.get !i in
  let fsm = Lifecycle.create () in
  List.iter (fun ev -> Lifecycle.step fsm ~emit:(fun _ -> ()) ev) events;
  (match Lifecycle.dirty_words fsm with
  | [ (40, site) ] -> Alcotest.(check bool) "residue site" true (Instr.equal site iw)
  | l -> Alcotest.failf "expected word 40 dirty, got %d residue words" (List.length l));
  (* Lint promotes the residue under taxonomy. *)
  let l = Lint.create ~taxonomy:true () in
  Lint.absorb l events;
  (match
     List.find_opt
       (fun (f : Lint.finding) -> f.Lint.f_kind = Lint.Unflushed_at_exit)
       (Lint.findings l)
   with
  | Some f ->
      Alcotest.(check int) "residue word" 40 f.Lint.f_addr;
      Alcotest.(check bool) "medium severity" true (f.Lint.f_severity = Lint.Medium)
  | None -> Alcotest.fail "expected an unflushed-at-exit finding");
  (* The same stream absorbed as a recovery trace is the High class. *)
  let lr = Lint.create ~taxonomy:true () in
  Lint.absorb ~phase:`Recovery lr events;
  Alcotest.(check bool) "recovery residue is missing-recovery-flush" true
    (List.mem Lint.Missing_recovery_flush (kinds_of lr));
  Alcotest.(check bool) "not reported as normal residue" false
    (List.mem Lint.Unflushed_at_exit (kinds_of lr));
  (* Taxonomy off: residue stays out of the findings. *)
  let loff = Lint.create () in
  Lint.absorb loff events;
  Alcotest.(check bool) "taxonomy off: no residue findings" false
    (List.mem Lint.Unflushed_at_exit (kinds_of loff))

(* --- taxonomy: cross-region ordering ----------------------------------- *)

let cross_region_trace () =
  record_trace (fun t0 _ ->
      let ie = Instr.site "det:xr_early" and il = Instr.site "det:xr_late" in
      (* Early store in region 0 (word 10) stays dirty while a later
         store in another region (word 100) is flushed and fenced. *)
      Mem.store t0 ~instr:ie (Tval.of_int 10) Tval.one;
      Mem.store t0 ~instr:il (Tval.of_int 100) Tval.one;
      Mem.clwb t0 ~instr:il (Tval.of_int 100);
      Mem.sfence t0 ~instr:il)

let test_cross_region () =
  let events = cross_region_trace () in
  let l = Lint.create ~taxonomy:true ~region_of:(fun w -> w / 64) () in
  Lint.absorb l events;
  (match
     List.find_opt
       (fun (f : Lint.finding) -> f.Lint.f_kind = Lint.Cross_region_order)
       (Lint.findings l)
   with
  | Some f ->
      Alcotest.(check bool) "early store site recorded" true
        (f.Lint.f_write_site = Some (Instr.site "det:xr_early"))
  | None -> Alcotest.fail "expected a cross-region ordering finding");
  (* Without a region classifier the pool is one region: silent. *)
  let l' = Lint.create ~taxonomy:true () in
  Lint.absorb l' events;
  Alcotest.(check bool) "one region: silent" false (List.mem Lint.Cross_region_order (kinds_of l'));
  (* Same-region ordering is not flagged either. *)
  let l'' = Lint.create ~taxonomy:true ~region_of:(fun _ -> 0) () in
  Lint.absorb l'' events;
  Alcotest.(check bool) "same region: silent" false
    (List.mem Lint.Cross_region_order (kinds_of l''))

(* --- findings determinism across absorb orders ------------------------- *)

let finding_key (f : Lint.finding) =
  ( Lint.kind_slug f.Lint.f_kind,
    Option.map Instr.name f.Lint.f_write_site,
    Instr.name f.Lint.f_site,
    f.Lint.f_addr,
    f.Lint.f_count,
    Lint.severity_rank f.Lint.f_severity )

let test_findings_order_deterministic () =
  (* Three traces with overlapping and distinct findings; absorbing them
     in any order must produce the identical findings list (modulo
     f_first_exec, which by design records absorb order). *)
  let tr1 = double_flush_trace () in
  let tr2 = cross_region_trace () in
  let tr3 =
    record_trace (fun t0 t1 ->
        let iw = Instr.site "det:ow" and ir = Instr.site "det:or" in
        Mem.store t0 ~instr:iw (Tval.of_int 10) Tval.one;
        ignore (Mem.load t1 ~instr:ir (Tval.of_int 10));
        Mem.persist t0 ~instr:iw (Tval.of_int 10))
  in
  let absorb_all order =
    let l = Lint.create ~taxonomy:true ~region_of:(fun w -> w / 64) () in
    List.iter (Lint.absorb l) order;
    List.map finding_key (Lint.findings l)
  in
  let a = absorb_all [ tr1; tr2; tr3 ] in
  let b = absorb_all [ tr3; tr2; tr1 ] in
  let c = absorb_all [ tr2; tr1; tr3 ] in
  Alcotest.(check bool) "order 1 = order 2" true (a = b);
  Alcotest.(check bool) "order 1 = order 3" true (a = c);
  Alcotest.(check bool) "non-empty" true (a <> [])

(* --- invariants: synthetic order mining and checking -------------------- *)

let order_ok_trace () =
  record_trace (fun t0 _ ->
      let ia = Instr.site "det:inv_a" and ib = Instr.site "det:inv_b" in
      Mem.store t0 ~instr:ia (Tval.of_int 10) Tval.one;
      Mem.persist t0 ~instr:ia (Tval.of_int 10);
      Mem.store t0 ~instr:ib (Tval.of_int 20) Tval.one;
      Mem.persist t0 ~instr:ib (Tval.of_int 20))

let order_bad_trace () =
  record_trace (fun t0 _ ->
      let ia = Instr.site "det:inv_a" and ib = Instr.site "det:inv_b" in
      Mem.store t0 ~instr:ia (Tval.of_int 10) Tval.one;
      (* b issues while a is still pending: the ordering violation *)
      Mem.store t0 ~instr:ib (Tval.of_int 20) Tval.one;
      Mem.persist t0 ~instr:ia (Tval.of_int 10);
      Mem.persist t0 ~instr:ib (Tval.of_int 20))

let test_order_invariant () =
  let ia = Instr.site "det:inv_a" and ib = Instr.site "det:inv_b" in
  let m = Inv.create () in
  Inv.absorb m (order_ok_trace ());
  Inv.absorb m (order_ok_trace ());
  Alcotest.(check int) "two executions" 2 (Inv.executions m);
  let specs = Inv.mine m in
  let is_ab = function
    | { Inv.inv = Inv.Order { first; next }; _ } -> Instr.equal first ia && Instr.equal next ib
    | _ -> false
  in
  (match List.find_opt is_ab specs with
  | Some s -> Alcotest.(check int) "support counts both executions" 2 s.Inv.support
  | None -> Alcotest.fail "expected order a -> b to be mined");
  (* Self-check: the mining traces violate nothing (by construction). *)
  Alcotest.(check int) "self-check clean" 0 (List.length (Inv.check specs (order_ok_trace ())));
  (* The violating trace is flagged, at b's too-early store. *)
  match Inv.check specs (order_bad_trace ()) with
  | [] -> Alcotest.fail "expected a violation"
  | v :: _ ->
      Alcotest.(check bool) "violating site is b" true (Instr.equal v.Inv.v_site ib);
      Alcotest.(check (list int)) "pending source word" [ 10 ] v.Inv.v_words

let test_order_min_support () =
  let m = Inv.create () in
  Inv.absorb m (order_ok_trace ());
  Alcotest.(check (list string)) "support 1 < min_support 2: nothing mined" []
    (List.map (fun (s : Inv.spec) -> Inv.label s.Inv.inv) (Inv.mine m))

(* --- invariants: synthetic commit mining and checking ------------------- *)

let commit_ok_trace () =
  record_trace (fun t0 _ ->
      let ia = Instr.site "det:cm_data" and ic = Instr.site "det:cm_flag" in
      (* One epoch: data then flag, both persisted by the same fence —
         the flag is the epoch's last issued store. *)
      Mem.store t0 ~instr:ia (Tval.of_int 10) Tval.one;
      Mem.store t0 ~instr:ic (Tval.of_int 20) Tval.one;
      Mem.clwb t0 ~instr:ia (Tval.of_int 10);
      Mem.clwb t0 ~instr:ic (Tval.of_int 20);
      Mem.sfence t0 ~instr:ic)

let commit_bad_trace () =
  record_trace (fun t0 _ ->
      let ia = Instr.site "det:cm_data" and ic = Instr.site "det:cm_flag" in
      (* The flag issues first: the epoch's last store is the data. *)
      Mem.store t0 ~instr:ic (Tval.of_int 20) Tval.one;
      Mem.store t0 ~instr:ia (Tval.of_int 10) Tval.one;
      Mem.clwb t0 ~instr:ia (Tval.of_int 10);
      Mem.clwb t0 ~instr:ic (Tval.of_int 20);
      Mem.sfence t0 ~instr:ic)

let test_commit_invariant () =
  let ia = Instr.site "det:cm_data" and ic = Instr.site "det:cm_flag" in
  let m = Inv.create () in
  Inv.absorb m (commit_ok_trace ());
  Inv.absorb m (commit_ok_trace ());
  let specs = Inv.mine m in
  let commits =
    List.filter (function { Inv.inv = Inv.Commit _; _ } -> true | _ -> false) specs
  in
  (match commits with
  | [ { Inv.inv = Inv.Commit { site }; support } ] ->
      Alcotest.(check bool) "flag is the commit variable" true (Instr.equal site ic);
      Alcotest.(check int) "one epoch per execution" 2 support
  | _ -> Alcotest.failf "expected exactly the flag commit, got %d" (List.length commits));
  Alcotest.(check int) "self-check clean" 0 (List.length (Inv.check commits (commit_ok_trace ())));
  match Inv.check commits (commit_bad_trace ()) with
  | [] -> Alcotest.fail "expected a commit violation"
  | v :: _ -> Alcotest.(check bool) "usurping last store is the data" true
                (Instr.equal v.Inv.v_site ia)

(* --- invariants over real recorded traces ------------------------------ *)

let fig1_traces = lazy (Analyze.record Workloads.Figure1.target)
let planted_traces = lazy (Analyze.record Workloads.Figure1.planted)

let fig1_specs =
  lazy
    (let m = Inv.create () in
     List.iter (Inv.absorb m) (Lazy.force fig1_traces);
     Inv.mine m)

let test_fig1_mines_store_before_unlock () =
  let specs = Lazy.force fig1_specs in
  Alcotest.(check bool) "store_x durable before unlock_g mined" true
    (List.exists
       (fun (s : Inv.spec) ->
         match s.Inv.inv with
         | Inv.Order { first; next } ->
             Instr.equal first (Instr.site "figure1.c:store_x")
             && Instr.equal next (Instr.site "figure1.c:unlock_g")
         | Inv.Commit _ -> false)
       specs)

let test_fig1_self_check_clean () =
  let specs = Lazy.force fig1_specs in
  List.iter
    (fun tr ->
      match Inv.check specs tr with
      | [] -> ()
      | v :: _ -> Alcotest.failf "mining trace violates %s" (Inv.label v.Inv.v_inv))
    (Lazy.force fig1_traces)

let test_planted_violates_fig1_specs () =
  (* The planted variant releases the lock before x is flushed, so the
     figure1-mined ordering invariant is violated in its traces. *)
  let specs = Lazy.force fig1_specs in
  let violations = List.concat_map (Inv.check specs) (Lazy.force planted_traces) in
  Alcotest.(check bool) "planted traces violate" true (violations <> []);
  Alcotest.(check bool) "the store_x -> unlock_g ordering is among them" true
    (List.exists
       (fun (v : Inv.violation) ->
         match v.Inv.v_inv with
         | Inv.Order { first; next } ->
             Instr.equal first (Instr.site "figure1.c:store_x")
             && Instr.equal next (Instr.site "figure1.c:unlock_g")
         | Inv.Commit _ -> false)
       violations)

let test_pclht_self_check_clean () =
  let cfg = { Analyze.default_config with Analyze.seeds = 3; Analyze.scheds_per_seed = 2 } in
  let traces = Analyze.record ~cfg Workloads.Pclht.target in
  let m = Inv.create () in
  List.iter (Inv.absorb m) traces;
  let specs = Inv.mine m in
  Alcotest.(check bool) "p-clht mines invariants" true (specs <> []);
  List.iter
    (fun tr ->
      match Inv.check specs tr with
      | [] -> ()
      | v :: _ -> Alcotest.failf "mining trace violates %s" (Inv.label v.Inv.v_inv))
    traces

(* --- the analyze driver end-to-end ------------------------------------- *)

let test_analyze_planted_full () =
  let r = Analyze.run ~cfg:Analyze.full_config Workloads.Figure1.planted in
  Alcotest.(check bool) "missing recovery-path flush found" true
    (List.exists
       (fun (f : Lint.finding) -> f.Lint.f_kind = Lint.Missing_recovery_flush)
       r.Analyzer.r_findings);
  Alcotest.(check bool) "invariants mined" true (r.Analyzer.r_invariants <> [])

let test_analyze_figure1_no_recovery_class () =
  (* figure1's recovery is empty: the recovery-path class never fires. *)
  let r = Analyze.run ~cfg:Analyze.full_config Workloads.Figure1.target in
  Alcotest.(check bool) "no missing-recovery-flush on figure1" false
    (List.exists
       (fun (f : Lint.finding) -> f.Lint.f_kind = Lint.Missing_recovery_flush)
       r.Analyzer.r_findings)

let test_analyze_default_unchanged () =
  (* The default config keeps the v1 behaviour: no taxonomy classes, no
     invariants. *)
  let r = Analyze.run Workloads.Figure1.planted in
  Alcotest.(check bool) "no taxonomy findings" true
    (List.for_all
       (fun (f : Lint.finding) ->
         match f.Lint.f_kind with
         | Lint.Double_flush | Lint.Cross_region_order | Lint.Unflushed_at_exit
         | Lint.Missing_recovery_flush ->
             false
         | _ -> true)
       r.Analyzer.r_findings);
  Alcotest.(check (list string)) "no invariants" []
    (List.map (fun (s : Inv.spec) -> Inv.label s.Inv.inv) r.Analyzer.r_invariants)

(* --- the fuzzer-side monitor ------------------------------------------- *)

let test_monitor_flags_planted () =
  let specs = Lazy.force fig1_specs in
  let mon = Pmrace.Inv_monitor.create specs in
  let target = Workloads.Figure1.planted in
  let rng = Sched.Rng.create 17 in
  let hits = ref [] in
  let engine = Pmrace.Engine.create target in
  for _ = 1 to 5 do
    let seed = Pmrace.Seed.gen rng target.Pmrace.Target.profile in
    let input =
      Pmrace.Campaign.input ~sched_seed:(Sched.Rng.int rng 1_000_000_000)
        ~policy:Pmrace.Campaign.Random_sched target seed
    in
    ignore (Pmrace.Campaign.run ~engine ~listeners:[ Pmrace.Inv_monitor.attach mon ] input);
    hits := Pmrace.Inv_monitor.drain mon @ !hits
  done;
  match
    List.find_opt
      (fun (h : Pmrace.Inv_monitor.hit) ->
        Instr.equal h.h_site (Instr.site "figure1.c:unlock_g"))
      !hits
  with
  | None -> Alcotest.fail "expected the monitor to flag the planted ordering bug"
  | Some h ->
      Alcotest.(check bool) "image captured" true (h.h_crash <> None);
      Alcotest.(check bool) "pending source words recorded" true (h.h_words <> []);
      (* Post-failure validation: recovery never persists x, so the hit
         is a confirmed ordering bug, not a false positive. *)
      (match
         Pmrace.Post_failure.validate
           (Pmrace.Post_failure.ctx target)
           (Pmrace.Post_failure.Candidate.Ordering { crash = h.h_crash; eff_words = h.h_words })
       with
      | Pmrace.Post_failure.Bug _ -> ()
      | v -> Alcotest.failf "expected a bug verdict, got %a" Pmrace.Post_failure.pp_verdict v)

let test_fuzzer_invariants_session () =
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~master_seed:3 ~invariants:true ()
  in
  let s = Pmrace.Fuzzer.run Workloads.Figure1.target cfg in
  (* The pre-pass mined a monitor set.  Fuzzed schedules explore beyond
     the mining set, so violations may legitimately occur (figure1 is a
     buggy program); what must hold is that every violation was routed
     through post-failure validation and carries a verdict. *)
  Alcotest.(check bool) "monitor set installed" true (Pmrace.Report.invariants s.report <> []);
  List.iter
    (fun (f : Pmrace.Report.finding) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s validated" (Pmrace.Report.site f))
        true
        (f.verdict <> None))
    (Pmrace.Report.invariant_findings s.report)

let test_fuzzer_invariants_off_by_default () =
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:5 ~master_seed:3 () in
  let s = Pmrace.Fuzzer.run Workloads.Figure1.target cfg in
  Alcotest.(check bool) "no monitor set" true (Pmrace.Report.invariants s.report = [])

(* --- v2 artifacts ------------------------------------------------------- *)

let test_artifact_v2_roundtrip () =
  let target = Workloads.Figure1.target in
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:20 ~master_seed:3 ~static_prepass:true
      ~invariants:true ()
  in
  let s = Pmrace.Fuzzer.run target cfg in
  let a = Pmrace.Artifact.of_session ~target ~cfg s in
  Alcotest.(check bool) "lint entries present" true (a.Pmrace.Artifact.a_lint <> []);
  Alcotest.(check bool) "mined invariants present" true (a.Pmrace.Artifact.a_invariants <> []);
  match Pmrace.Artifact.of_json (Pmrace.Artifact.to_json a) with
  | Error e -> Alcotest.failf "v2 artifact did not decode: %s" e
  | Ok a' ->
      Alcotest.(check int) "lint entries survive" (List.length a.Pmrace.Artifact.a_lint)
        (List.length a'.Pmrace.Artifact.a_lint);
      Alcotest.(check bool) "lint lists identical" true
        (a.Pmrace.Artifact.a_lint = a'.Pmrace.Artifact.a_lint);
      Alcotest.(check bool) "invariant lists identical" true
        (a.Pmrace.Artifact.a_invariants = a'.Pmrace.Artifact.a_invariants);
      Alcotest.(check bool) "violation lists identical" true
        (a.Pmrace.Artifact.a_inv_findings = a'.Pmrace.Artifact.a_inv_findings);
      Alcotest.(check bool) "config.invariants survives" true
        a'.Pmrace.Artifact.a_config.Pmrace.Fuzzer.invariants

let test_artifact_v1_compat () =
  (* A v1 document — no lint/invariants sections, no config.invariants,
     version 1 — must still decode, with the new fields empty/false. *)
  let module J = Obs.Json in
  let target = Workloads.Figure1.target in
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:20 ~master_seed:3 () in
  let s = Pmrace.Fuzzer.run target cfg in
  let a = Pmrace.Artifact.of_session ~target ~cfg s in
  let strip_v2 = function
    | J.Obj fields ->
        J.Obj
          (List.filter_map
             (fun (k, v) ->
               match (k, v) with
               | "version", _ -> Some (k, J.Int 1)
               | ("lint" | "invariants"), _ -> None
               | "config", J.Obj cf ->
                   Some (k, J.Obj (List.filter (fun (ck, _) -> ck <> "invariants") cf))
               | _ -> Some (k, v))
             fields)
    | j -> j
  in
  match Pmrace.Artifact.of_json (strip_v2 (Pmrace.Artifact.to_json a)) with
  | Error e -> Alcotest.failf "v1 artifact did not decode: %s" e
  | Ok a' ->
      Alcotest.(check int) "campaigns survive" a.Pmrace.Artifact.a_campaigns
        a'.Pmrace.Artifact.a_campaigns;
      Alcotest.(check bool) "lint defaults empty" true (a'.Pmrace.Artifact.a_lint = []);
      Alcotest.(check bool) "invariants default empty" true
        (a'.Pmrace.Artifact.a_invariants = [] && a'.Pmrace.Artifact.a_inv_findings = []);
      Alcotest.(check bool) "config.invariants defaults false" false
        a'.Pmrace.Artifact.a_config.Pmrace.Fuzzer.invariants

(* --- registry hygiene ---------------------------------------------------- *)

let test_planted_not_listed () =
  Alcotest.(check bool) "findable by name" true
    (Workloads.Registry.find "figure1-planted" <> None);
  Alcotest.(check bool) "not in the listed names" false
    (List.mem "figure1-planted" (Workloads.Registry.names ()))

let suite =
  [
    Alcotest.test_case "lint: double flush" `Quick test_double_flush;
    Alcotest.test_case "lint: double flush gated by taxonomy" `Quick test_double_flush_gated;
    Alcotest.test_case "lifecycle: end-of-trace residue" `Quick test_dirty_words_residue;
    Alcotest.test_case "lint: cross-region ordering" `Quick test_cross_region;
    Alcotest.test_case "lint: findings order-deterministic" `Quick test_findings_order_deterministic;
    Alcotest.test_case "invariants: order mining + violation" `Quick test_order_invariant;
    Alcotest.test_case "invariants: min support" `Quick test_order_min_support;
    Alcotest.test_case "invariants: commit mining + violation" `Quick test_commit_invariant;
    Alcotest.test_case "invariants: figure1 mines store->unlock" `Quick
      test_fig1_mines_store_before_unlock;
    Alcotest.test_case "invariants: figure1 self-check clean" `Quick test_fig1_self_check_clean;
    Alcotest.test_case "invariants: planted violates figure1 specs" `Quick
      test_planted_violates_fig1_specs;
    Alcotest.test_case "invariants: p-clht self-check clean" `Slow test_pclht_self_check_clean;
    Alcotest.test_case "analyze: planted full run" `Quick test_analyze_planted_full;
    Alcotest.test_case "analyze: figure1 has no recovery-flush class" `Quick
      test_analyze_figure1_no_recovery_class;
    Alcotest.test_case "analyze: default config unchanged" `Quick test_analyze_default_unchanged;
    Alcotest.test_case "monitor: flags the planted ordering bug" `Quick test_monitor_flags_planted;
    Alcotest.test_case "fuzzer: --invariants session" `Quick test_fuzzer_invariants_session;
    Alcotest.test_case "fuzzer: invariants off by default" `Quick
      test_fuzzer_invariants_off_by_default;
    Alcotest.test_case "artifact: v2 roundtrip" `Quick test_artifact_v2_roundtrip;
    Alcotest.test_case "artifact: v1 compat" `Quick test_artifact_v1_compat;
    Alcotest.test_case "registry: planted opt-in only" `Quick test_planted_not_listed;
  ]
