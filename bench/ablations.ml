(* Ablations beyond the paper's main tables: the eADR discussion of §6.6,
   the §4.3 extensibility checkers, and the §5 worker-pool dispatch. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Candidates = Runtime.Candidates

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* §6.6: on an eADR platform the caches are persistent, so PM Inter-thread
   Inconsistency cannot occur — but unreleased persistent locks still
   survive crashes, so PM Synchronization Inconsistency (and its bugs)
   remain. *)

let eadr ppf =
  Format.fprintf ppf "@.Ablation (6.6): PMRace applicability under eADR.@.";
  hr ppf;
  Format.fprintf ppf "%-15s %-6s | %11s %11s | %10s %9s@." "Systems" "eADR" "Inter-Cand"
    "Inter-Inc" "Sync-Inc" "Sync-Bug";
  hr ppf;
  List.iter
    (fun (target : Pmrace.Target.t) ->
      List.iter
        (fun eadr ->
          let cfg =
            Fuzzer.Config.make ~max_campaigns:200 ~master_seed:5 ~eadr ()
          in
          let s = Fuzzer.run target cfg in
          let _, _, sbugs, _ = Report.sync_summary s.report in
          Format.fprintf ppf "%-15s %-6s | %11d %11d | %10d %9d@." target.name
            (if eadr then "on" else "off")
            (Report.candidate_count s.report Candidates.Inter)
            (Report.inconsistency_count s.report Candidates.Inter)
            (List.length (Report.sync_findings s.report))
            sbugs)
        [ false; true ])
    [ Workloads.Pclht.target; Workloads.Cceh.target ];
  hr ppf;
  Format.fprintf ppf
    "(eADR removes every Inter-thread Inconsistency — no dirty reads exist — while@.";
  Format.fprintf ppf
    " the unreleased persistent locks still persist: PM Execution Context Bugs remain.)@."

(* ------------------------------------------------------------------ *)
(* §4.3 extensibility: the redundant-flush and missing-flush checkers run
   as plain listeners over one campaign per system. *)

let checkers ppf =
  Format.fprintf ppf "@.Ablation (4.3): additional PM checkers on PMRace's framework.@.";
  hr ppf;
  Format.fprintf ppf "%-15s %9s %10s   %s@." "Systems" "flushes" "redundant" "top unflushed-at-exit sites";
  hr ppf;
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let aux = Pmrace.Aux_checkers.create () in
      let seed =
        Pmrace.Mutator.populate (Sched.Rng.create 5)
          { target.profile with Pmrace.Seed.supported = [ Pmrace.Seed.KPut ] }
          ~factor:3
      in
      let input = Pmrace.Campaign.input ~sched_seed:3 target seed in
      let engine = Pmrace.Engine.create target in
      let r = Pmrace.Campaign.run ~engine ~listeners:[ Pmrace.Aux_checkers.attach aux ] input in
      let unflushed = Pmrace.Aux_checkers.unflushed_at_exit r.env in
      let top =
        List.filteri (fun i _ -> i < 3) unflushed
        |> List.map (fun (s, n) -> Printf.sprintf "%s (%d)" s n)
        |> String.concat ", "
      in
      Format.fprintf ppf "%-15s %9d %10d   %s@." target.name
        (Pmrace.Aux_checkers.flushes aux)
        (Pmrace.Aux_checkers.redundant_total aux)
        (if String.equal top "" then "-" else top))
    Workloads.Registry.all;
  hr ppf;
  Format.fprintf ppf
    "(memcached's never-flushed header fields — the missing flushes behind bugs 11-14 —@.";
  Format.fprintf ppf " show up directly in the unflushed-at-exit column.)@."

(* ------------------------------------------------------------------ *)
(* §5: worker-pool dispatch.  Workers run on OCaml 5 domains sharing the
   hub (coverage, priority queue, report); the findings are the union of
   their campaigns, deduplicated by bug identity. *)

let workers ppf =
  Format.fprintf ppf "@.Ablation (5): worker domains (shared hub).@.";
  hr ppf;
  Format.fprintf ppf "%-8s %10s %12s %12s %14s@." "workers" "campaigns" "inter-cand" "inter-inc"
    "bugs found";
  hr ppf;
  let target = Workloads.Pclht.target in
  List.iter
    (fun w ->
      let cfg = Fuzzer.Config.make ~max_campaigns:300 ~master_seed:5 ~workers:w () in
      let s = Fuzzer.run target cfg in
      let found =
        List.length (List.filter snd (Fuzzer.found_known_bugs s target))
      in
      Format.fprintf ppf "%-8d %10d %12d %12d %11d/%d@." w s.campaigns_run
        (Report.candidate_count s.report Candidates.Inter)
        (Report.inconsistency_count s.report Candidates.Inter)
        found
        (List.length target.known_bugs))
    [ 1; 2; 4; 8 ];
  hr ppf

(* ------------------------------------------------------------------ *)
(* Worker scaling: executions per second at 1/2/4 domains on the same
   campaign budget.  Also records BENCH_workers.json for CI tracking.
   Scaling tracks the machine: with D hardware cores, expect ~min(w, D)×
   throughput (a single-core container shows ~1× everywhere, with a
   domain-coordination penalty above 1 worker). *)

let workers_scaling ppf =
  Format.fprintf ppf "@.Worker scaling (§5): executions/sec by domain count.@.";
  hr ppf;
  Format.fprintf ppf "%-8s %10s %10s %12s %10s@." "workers" "campaigns" "wall (s)" "execs/sec"
    "speedup";
  hr ppf;
  let target = Workloads.Pclht.target in
  let budget = 300 in
  let measure w =
    let cfg =
      Fuzzer.Config.make ~max_campaigns:budget ~master_seed:5 ~workers:w ()
    in
    let t0 = Obs.Clock.now () in
    let s = Fuzzer.run target cfg in
    let wall = Obs.Clock.elapsed t0 in
    (s.campaigns_run, wall, float_of_int s.campaigns_run /. Float.max 1e-9 wall)
  in
  let results = List.map (fun w -> (w, measure w)) [ 1; 2; 4 ] in
  let base_eps = match results with (_, (_, _, eps)) :: _ -> eps | [] -> 1. in
  List.iter
    (fun (w, (campaigns, wall, eps)) ->
      Format.fprintf ppf "%-8d %10d %10.2f %12.1f %9.2fx@." w campaigns wall eps (eps /. base_eps))
    results;
  hr ppf;
  Format.fprintf ppf "(%d hardware cores available to this run)@."
    (Domain.recommended_domain_count ());
  let json =
    Obs.Json.Obj
      [
        ("target", Obs.Json.String target.name);
        ("budget", Obs.Json.Int budget);
        ("cores", Obs.Json.Int (Domain.recommended_domain_count ()));
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (w, (campaigns, wall, eps)) ->
                 Obs.Json.Obj
                   [
                     ("workers", Obs.Json.Int w);
                     ("campaigns", Obs.Json.Int campaigns);
                     ("wall_s", Obs.Json.Float wall);
                     ("execs_per_sec", Obs.Json.Float eps);
                   ])
               results) );
      ]
  in
  let oc = open_out "BENCH_workers.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "(wrote BENCH_workers.json)@."

(* ------------------------------------------------------------------ *)
(* Execution engine: legacy fresh-environment campaign setup (re-running
   the target's initialisation every campaign) vs the persistent-mode
   engine (one context per worker, O(touched) pool reset between
   campaigns).  Same seeds, same scheduler streams — only the setup path
   differs, so the delta is pure per-campaign setup cost.  Also records
   BENCH_engine.json for CI tracking. *)

let engine ppf =
  Format.fprintf ppf
    "@.Execution engine: legacy fresh-env vs persistent-mode campaign contexts.@.";
  hr ppf;
  Format.fprintf ppf "%-15s %10s %14s %14s %10s %10s@." "target" "campaigns" "legacy (ex/s)"
    "engine (ex/s)" "speedup" "touched";
  hr ppf;
  let module Campaign = Pmrace.Campaign in
  let module Engine = Pmrace.Engine in
  let module Seed = Pmrace.Seed in
  let bench (target : Pmrace.Target.t) campaigns =
    let inputs =
      let rng = Sched.Rng.create 42 in
      List.init campaigns (fun _ ->
          let seed = Seed.gen rng target.profile in
          let sched_seed = Sched.Rng.int rng 1_000_000_000 in
          Campaign.input ~sched_seed ~policy:Campaign.Random_sched target seed)
    in
    let time f =
      let t0 = Obs.Clock.now () in
      List.iter f inputs;
      Obs.Clock.elapsed t0
    in
    (* Legacy: a fresh environment and a full target initialisation per
       campaign — what every campaign paid before in-memory checkpoints. *)
    let fresh = Engine.create ~use_checkpoint:false target in
    let legacy_wall = time (fun i -> ignore (Campaign.run ~engine:fresh i)) in
    (* Engine: one persistent context, reset between campaigns. *)
    let eng = Engine.create ~use_checkpoint:true target in
    let engine_wall = time (fun i -> ignore (Campaign.run ~engine:eng i)) in
    let eps wall = float_of_int campaigns /. Float.max 1e-9 wall in
    (eps legacy_wall, eps engine_wall, Engine.last_reset_touched eng)
  in
  let rows =
    List.map
      (fun ((target : Pmrace.Target.t), campaigns) ->
        let legacy, engined, touched = bench target campaigns in
        Format.fprintf ppf "%-15s %10d %14.1f %14.1f %9.2fx %10d@." target.name campaigns
          legacy engined (engined /. legacy) touched;
        (target, campaigns, legacy, engined, touched))
      [ (Workloads.Figure1.target, 120); (Workloads.Memcached.target, 60);
        (Workloads.Pclht.target, 60) ]
  in
  hr ppf;
  Format.fprintf ppf
    "(speedup = pure setup-path delta; expect >=2x only where initialisation dominates)@.";
  let json =
    Obs.Json.Obj
      [
        ( "runs",
          Obs.Json.List
            (List.map
               (fun ((target : Pmrace.Target.t), campaigns, legacy, engined, touched) ->
                 Obs.Json.Obj
                   [
                     ("target", Obs.Json.String target.name);
                     ("campaigns", Obs.Json.Int campaigns);
                     ("legacy_execs_per_sec", Obs.Json.Float legacy);
                     ("engine_execs_per_sec", Obs.Json.Float engined);
                     ("speedup", Obs.Json.Float (engined /. legacy));
                     ("last_reset_touched_words", Obs.Json.Int touched);
                     ("pool_words", Obs.Json.Int target.pool_words);
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "(wrote BENCH_engine.json)@."
