(* Partial-order reduction: footprint independence units, sleep-set
   behaviour of Scheduler.run driven by synthetic POR hooks, canonical
   trace-hash determinism, the artifact v5 round-trip, and the headline
   property — pruning must not change the unique-bug set on the planted
   workloads. *)

module F = Runtime.Footprint
module Sch = Sched.Scheduler
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Footprint independence units.                                       *)
(* ------------------------------------------------------------------ *)

let test_footprint_independence () =
  let ck = Alcotest.(check bool) in
  ck "none commutes with a store" true (F.independent F.none (F.store 3));
  ck "none commutes with a fence" true (F.independent F.none F.fence);
  ck "fence commutes with nothing" false (F.independent F.fence (F.load 1));
  ck "fence vs fence" false (F.independent F.fence F.fence);
  ck "opaque commutes with nothing" false (F.independent F.opaque (F.load 9));
  ck "loads of the same word commute" true (F.independent (F.load 4) (F.load 4));
  ck "load vs store of the same word conflict" false (F.independent (F.load 4) (F.store 4));
  ck "stores of distinct words commute" true (F.independent (F.store 1) (F.store 2));
  ck "stores of the same word conflict" false (F.independent (F.store 1) (F.store 1));
  ck "a CAS reads its word" false (F.independent (F.rw 7) (F.load 7));
  (* Flushes conflict at cache-line granularity. *)
  ck "flush vs same-line store conflict" false (F.independent (F.flush 8) (F.store 9));
  ck "flush vs other-line store commute" true (F.independent (F.flush 8) (F.store 0));
  ck "flushes of the same line conflict" false (F.independent (F.flush 8) (F.flush 9));
  ck "flushes of distinct lines commute" true (F.independent (F.flush 0) (F.flush 8))

let fp_of (k, w) =
  match k mod 6 with
  | 0 -> F.none
  | 1 -> F.load w
  | 2 -> F.store w
  | 3 -> F.rw w
  | 4 -> F.flush w
  | _ -> F.fence

let prop_independence_symmetric =
  QCheck.Test.make ~name:"por: independence is symmetric" ~count:500
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun (a, b) -> F.independent (fp_of a) (fp_of b) = F.independent (fp_of b) (fp_of a))

(* ------------------------------------------------------------------ *)
(* Sleep sets on the bare scheduler, via synthetic int hooks.  Each     *)
(* fiber replays a script of footprints; [pending] holds the next       *)
(* unexecuted entry and the [step_fp] cell the one the last step ran.   *)
(* ------------------------------------------------------------------ *)

let run_scripts ?(independent = F.independent) ?(spin = F.spin_retry) ~seed scripts =
  let t = Sch.create ~rng:(Sched.Rng.create seed) () in
  let n = Array.length scripts in
  let pending = Array.make (max 1 n) 0 in
  let step_fp = [| 0 |] in
  Array.iteri
    (fun tid ops ->
      if Array.length ops > 0 then pending.(tid) <- ops.(0);
      ignore
        (Sch.spawn t ~name:(Printf.sprintf "f%d" tid) (fun () ->
             let len = Array.length ops in
             Array.iteri
               (fun k fp ->
                 step_fp.(0) <- fp;
                 pending.(tid) <- (if k + 1 < len then ops.(k + 1) else 0);
                 Sch.yield ())
               ops)))
    scripts;
  let por = { Sch.pending; step_fp; independent; spin; pruned_picks = 0; forced_wakes = 0 } in
  (Sch.run ~por t, por)

let test_disjoint_fibers_prune () =
  (* Words 0 and 100 never share a line: every pick of one fiber puts
     the lower-tid one to sleep, so pruning must kick in. *)
  let script w = Array.make 6 (F.store w) in
  let outcome, stats = run_scripts ~seed:7 [| script 0; script 100 |] in
  Alcotest.(check bool) "completed" true (Sch.completed outcome);
  Alcotest.(check (list int)) "both fibers finished" [ 0; 1 ]
    (List.sort compare outcome.Sch.finished);
  Alcotest.(check bool) "picks were pruned" true (stats.Sch.pruned_picks > 0)

let test_conflicting_fibers_never_prune () =
  (* Every pending op conflicts with every executed one: the sleep sets
     stay empty and the run degenerates to an unpruned random walk. *)
  let script = Array.make 6 (F.store 0) in
  let outcome, stats = run_scripts ~seed:7 [| script; Array.copy script |] in
  Alcotest.(check bool) "completed" true (Sch.completed outcome);
  Alcotest.(check int) "nothing pruned" 0 stats.Sch.pruned_picks;
  Alcotest.(check int) "no forced wakes" 0 stats.Sch.forced_wakes

let test_liveness_under_maximal_independence () =
  (* With everything declared independent the sleep sets are as greedy
     as they can be; the forced-wake fallback must still drive every
     fiber to completion on every seed. *)
  let scripts = [| Array.make 5 (F.store 0); Array.make 5 (F.store 1); Array.make 5 (F.store 2) |] in
  let wakes = ref 0 in
  for seed = 1 to 30 do
    let outcome, stats = run_scripts ~independent:(fun _ _ -> true) ~seed scripts in
    Alcotest.(check bool) (Printf.sprintf "seed %d completed" seed) true (Sch.completed outcome);
    Alcotest.(check int) (Printf.sprintf "seed %d all finished" seed) 3
      (List.length outcome.Sch.finished);
    wakes := !wakes + stats.Sch.forced_wakes
  done;
  Alcotest.(check bool) "forced wakes exercised" true (!wakes > 0)

let test_forced_wake_deterministic () =
  (* Two fibers, everything declared independent: once the higher tid is
     picked, the lower one sleeps and nothing ever wakes it, so when the
     higher fiber finishes the entire runnable set is asleep — the
     forced-wake fallback must fire and the run must still complete.
     Seed 2 picks tid 1 first, making the stat deterministically
     nonzero. *)
  let scripts = [| Array.make 4 (F.store 0); Array.make 4 (F.store 1) |] in
  let outcome, stats = run_scripts ~independent:(fun _ _ -> true) ~seed:2 scripts in
  Alcotest.(check bool) "completed" true (Sch.completed outcome);
  Alcotest.(check int) "both fibers finished" 2 (List.length outcome.Sch.finished);
  Alcotest.(check bool) "forced wake fired" true (stats.Sch.forced_wakes > 0);
  Alcotest.(check bool) "the sleeping span was accounted as pruned" true
    (stats.Sch.pruned_picks > 0)

(* ------------------------------------------------------------------ *)
(* Trace-hash determinism on a real campaign.                          *)
(* ------------------------------------------------------------------ *)

(* The Mazurkiewicz property itself, directly on the digest: swapping
   two adjacent ops of different fibers whose footprints commute must
   not change the trace hash — the two interleavings are the same trace.
   Replayed through {!Por.record_op} (no scheduler), so the property
   covers the digest in isolation. *)
let prop_trace_hash_swap_invariant =
  QCheck.Test.make ~name:"por: trace hash invariant under adjacent commuting swaps" ~count:300
    QCheck.(
      pair (list_of_size Gen.(int_range 8 32) (triple (int_bound 3) (int_range 1 5) (int_bound 12)))
        small_nat)
    (fun (ops, pick) ->
      let ops = Array.of_list (List.map (fun (tid, k, w) -> (tid, fp_of (k, w))) ops) in
      let swappable =
        List.filter
          (fun i ->
            let t1, f1 = ops.(i) and t2, f2 = ops.(i + 1) in
            t1 <> t2 && F.independent f1 f2)
          (List.init (Array.length ops - 1) Fun.id)
      in
      match swappable with
      | [] -> QCheck.assume_fail ()
      | l ->
          let i = List.nth l (pick mod List.length l) in
          let digest arr =
            let h = Pmrace.Por.create ~nthreads:4 () in
            Array.iter (fun (tid, fp) -> Pmrace.Por.record_op h tid fp) arr;
            Pmrace.Por.trace_hash h
          in
          let swapped = Array.copy ops in
          swapped.(i) <- ops.(i + 1);
          swapped.(i + 1) <- ops.(i);
          digest ops = digest swapped)

let test_trace_hash_deterministic () =
  let target = Workloads.Figure1.planted in
  let seed = Pmrace.Seed.gen (Sched.Rng.create 11) target.Pmrace.Target.profile in
  let run ~por =
    let input =
      Pmrace.Campaign.input ~sched_seed:42 ~policy:Pmrace.Campaign.Random_sched ~por target seed
    in
    (Pmrace.Campaign.run ~engine:(Pmrace.Engine.create target) input).Pmrace.Campaign.por
  in
  (match run ~por:false with
  | None -> ()
  | Some _ -> Alcotest.fail "POR off must record no pruning stats");
  match (run ~por:true, run ~por:true) with
  | Some a, Some b ->
      Alcotest.(check int64) "same trace hash" a.Pmrace.Por.s_trace_hash b.Pmrace.Por.s_trace_hash
  | _ -> Alcotest.fail "POR campaigns must record pruning stats"

(* ------------------------------------------------------------------ *)
(* Artifact v5: totals and trace hashes round-trip; a v4 artifact      *)
(* (no por section, no trace fields) still decodes.                    *)
(* ------------------------------------------------------------------ *)

let test_artifact_v5_roundtrip_and_v4_compat () =
  let target = Workloads.Figure1.planted in
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~master_seed:9 ~por:true () in
  let s = Pmrace.Fuzzer.run target cfg in
  let art = Pmrace.Artifact.of_session ~target ~cfg s in
  Alcotest.(check bool) "session totals recorded" true
    (art.Pmrace.Artifact.a_por = s.Pmrace.Fuzzer.por && art.Pmrace.Artifact.a_por <> None);
  Alcotest.(check bool) "some campaign has a trace hash" true
    (List.exists
       (fun (p : Pmrace.Artifact.prov_entry) -> p.pr_trace <> None)
       art.Pmrace.Artifact.a_provenance);
  (match Pmrace.Artifact.of_json (Pmrace.Artifact.to_json art) with
  | Error e -> Alcotest.failf "v5 round-trip failed: %s" e
  | Ok art' ->
      Alcotest.(check bool) "por totals round-trip" true
        (art'.Pmrace.Artifact.a_por = art.Pmrace.Artifact.a_por);
      Alcotest.(check bool) "config.por round-trips" true
        art'.Pmrace.Artifact.a_config.Pmrace.Fuzzer.por;
      Alcotest.(check bool) "trace hashes round-trip" true
        (List.map
           (fun (p : Pmrace.Artifact.prov_entry) -> p.pr_trace)
           art'.Pmrace.Artifact.a_provenance
        = List.map
            (fun (p : Pmrace.Artifact.prov_entry) -> p.pr_trace)
            art.Pmrace.Artifact.a_provenance));
  (* Rewrite the encoding as a v4 writer would have produced it: no
     "por" keys, no "trace" keys, each provenance seed inline instead of
     an index into the "seeds" table, no table, version stamped 4. *)
  let v4 =
    match Pmrace.Artifact.to_json art with
    | J.Obj fields ->
        let seeds =
          match List.assoc_opt "seeds" fields with
          | Some (J.List l) -> Array.of_list l
          | _ -> Alcotest.fail "no seeds table"
        in
        let rec strip = function
          | J.Obj fields ->
              J.Obj
                (List.filter_map
                   (fun (k, v) ->
                     match (k, v) with
                     | ("por" | "trace" | "seeds"), _ -> None
                     | "version", _ -> Some (k, J.Int 4)
                     | "seed", J.Int i -> Some (k, seeds.(i))
                     | _ -> Some (k, strip v))
                   fields)
          | J.List l -> J.List (List.map strip l)
          | v -> v
        in
        strip (J.Obj fields)
    | _ -> Alcotest.fail "not an object"
  in
  match Pmrace.Artifact.of_json v4 with
  | Error e -> Alcotest.failf "v4 artifact failed to decode: %s" e
  | Ok art' ->
      Alcotest.(check bool) "no por totals" true (art'.Pmrace.Artifact.a_por = None);
      Alcotest.(check bool) "config.por defaults off" true
        (not art'.Pmrace.Artifact.a_config.Pmrace.Fuzzer.por);
      Alcotest.(check bool) "no trace hashes" true
        (List.for_all
           (fun (p : Pmrace.Artifact.prov_entry) -> p.pr_trace = None)
           art'.Pmrace.Artifact.a_provenance);
      Alcotest.(check bool) "bug groups preserved" true
        (Pmrace.Artifact.bug_fingerprints art' = Pmrace.Artifact.bug_fingerprints art);
      let seed_fps (a : Pmrace.Artifact.t) =
        List.map
          (fun (p : Pmrace.Artifact.prov_entry) -> Pmrace.Seed.fingerprint p.pr_seed)
          a.a_provenance
      in
      Alcotest.(check (list int64)) "inline seeds decode" (seed_fps art) (seed_fps art')

(* ------------------------------------------------------------------ *)
(* The headline property: pruned and unpruned sessions find the same   *)
(* unique-bug set on the planted workloads.                            *)
(* ------------------------------------------------------------------ *)

let bug_set target cfg =
  let s = Pmrace.Fuzzer.run target cfg in
  Pmrace.Fuzzer.found_known_bugs s target
  |> List.filter_map (fun ((kb : Pmrace.Target.known_bug), found) ->
         if found then Some kb.kb_id else None)
  |> List.sort compare

let prop_bug_sets name target ~campaigns ~crash_images ~count =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 1000)
    (fun master ->
      let cfg por =
        Pmrace.Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:(master + 1)
          ~crash_images ~por ()
      in
      bug_set target (cfg false) = bug_set target (cfg true))

let prop_figure1_bug_sets =
  prop_bug_sets "por: figure1-planted bug set unchanged by pruning" Workloads.Figure1.planted
    ~campaigns:60 ~crash_images:1 ~count:5

let prop_torn_bug_sets =
  prop_bug_sets "por: torn-planted bug set unchanged by pruning" Workloads.Tornstore.target
    ~campaigns:60 ~crash_images:4 ~count:3

let test_por_session_finds_planted () =
  let target = Workloads.Figure1.planted in
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:60 ~master_seed:5 ~por:true () in
  let s = Pmrace.Fuzzer.run target cfg in
  Alcotest.(check bool) "planted bug found under POR" true
    (Pmrace.Fuzzer.found_known_bugs s target |> List.exists snd);
  match s.Pmrace.Fuzzer.por with
  | None -> Alcotest.fail "POR session has no totals"
  | Some (p : Pmrace.Hub.por_totals) ->
      Alcotest.(check int) "every campaign ran under POR" s.Pmrace.Fuzzer.campaigns_run
        p.pt_campaigns;
      Alcotest.(check bool) "traces were classified" true (p.pt_unique_traces > 0);
      Alcotest.(check bool) "dedup accounting consistent" true
        (p.pt_unique_traces + p.pt_dup_traces = p.pt_campaigns)

(* Replay faithfulness under POR: every campaign of a --por session,
   re-executed from its decoded artifact through replay's own path on one
   reused engine, digests to the trace hash the session recorded.  The
   digest is pure observation, so replay computes it like the fuzzer. *)
let test_por_replay_faithful target ~crash_images () =
  let cfg =
    Pmrace.Fuzzer.Config.make ~max_campaigns:60 ~master_seed:5 ~crash_images ~por:true ()
  in
  let s = Pmrace.Fuzzer.run target cfg in
  let art =
    match
      Pmrace.Artifact.of_json
        (Pmrace.Artifact.to_json (Pmrace.Artifact.of_session ~target ~cfg s))
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "artifact does not decode: %s" e
  in
  let rerun = Pmrace.Replay.rerun ~target ~artifact:art in
  let replayed =
    List.fold_left
      (fun n (p : Pmrace.Artifact.prov_entry) ->
        let r = rerun p in
        Alcotest.(check (option int64))
          (Printf.sprintf "campaign %d trace hash" p.pr_campaign)
          p.pr_trace
          (Option.map (fun (ps : Pmrace.Por.stats) -> ps.s_trace_hash) r.por);
        n + 1)
      0 art.a_provenance
  in
  Alcotest.(check int) "every campaign replayed" s.campaigns_run replayed

let suite =
  [
    Alcotest.test_case "footprint independence" `Quick test_footprint_independence;
    QCheck_alcotest.to_alcotest prop_independence_symmetric;
    Alcotest.test_case "disjoint fibers prune" `Quick test_disjoint_fibers_prune;
    Alcotest.test_case "conflicting fibers never prune" `Quick test_conflicting_fibers_never_prune;
    Alcotest.test_case "liveness under maximal independence" `Quick
      test_liveness_under_maximal_independence;
    Alcotest.test_case "forced wake: deterministic unit" `Quick test_forced_wake_deterministic;
    QCheck_alcotest.to_alcotest prop_trace_hash_swap_invariant;
    Alcotest.test_case "trace hash is deterministic" `Quick test_trace_hash_deterministic;
    Alcotest.test_case "artifact v5 round-trip, v4 compat" `Quick
      test_artifact_v5_roundtrip_and_v4_compat;
    Alcotest.test_case "POR session finds the planted bug" `Quick test_por_session_finds_planted;
    Alcotest.test_case "POR replay reproduces every trace hash: figure1-planted" `Quick
      (test_por_replay_faithful Workloads.Figure1.planted ~crash_images:1);
    Alcotest.test_case "POR replay reproduces every trace hash: torn-planted" `Quick
      (test_por_replay_faithful Workloads.Tornstore.target ~crash_images:4);
    QCheck_alcotest.to_alcotest prop_figure1_bug_sets;
    QCheck_alcotest.to_alcotest prop_torn_bug_sets;
  ]
