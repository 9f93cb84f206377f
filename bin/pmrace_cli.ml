(* The pmrace command-line interface.

     pmrace list                        show the available targets
     pmrace fuzz TARGET [options]       fuzz one target and print the report
     pmrace replay TARGET --from S.json re-execute one recorded campaign
     pmrace analyze TARGET [options]    offline persistency analysis (no fuzzing)
     pmrace inspect TARGET              show a target's seeded ground truth

   The table/figure reproductions live in the benchmark harness
   (dune exec bench/main.exe). *)

open Cmdliner

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

let print_session ppf (target : Pmrace.Target.t) (s : Fuzzer.session) =
  (* wall_time is read from the monotonized clock (Obs.Clock), so the
     execs/sec figure cannot go negative under wall-clock adjustments. *)
  Format.fprintf ppf "== %s: %d campaigns in %.2fs (%.0f execs/sec) ==@." target.name
    s.campaigns_run s.wall_time
    (float_of_int s.campaigns_run /. Float.max 1e-9 s.wall_time);
  if Array.length s.worker_campaigns > 1 then
    Format.fprintf ppf "campaigns per worker: %a@."
      Fmt.(array ~sep:(any ", ") int)
      s.worker_campaigns;
  Format.fprintf ppf "coverage: %d PM alias pairs (%a), %d branches@."
    (Pmrace.Alias_cov.count s.alias) Pmrace.Alias_cov.pp_site_coverage s.alias
    (Pmrace.Branch_cov.count s.branch);
  (match Pmrace.Report.lint_findings s.report with
  | [] -> ()
  | fs -> Format.fprintf ppf "static pre-pass: %d lint findings (see pmrace analyze)@." (List.length fs));
  (match Pmrace.Report.invariants s.report with
  | [] -> ()
  | specs ->
      Format.fprintf ppf "invariant monitor: %d likely invariants, %d violated@."
        (List.length specs)
        (List.length (Pmrace.Report.invariant_findings s.report));
      List.iter
        (fun (f : Report.finding) ->
          Format.fprintf ppf "  VIOLATED %s at %s (campaign %d%a)@." (Report.site f)
            (Report.read_site f) f.found_at
            (fun ppf -> function
              | None -> ()
              | Some v -> Format.fprintf ppf ", %a" Pmrace.Post_failure.pp_verdict v)
            f.verdict)
        (Report.invariant_findings s.report));
  Format.fprintf ppf "candidates: %d inter, %d intra@."
    (Report.candidate_count s.report Runtime.Candidates.Inter)
    (Report.candidate_count s.report Runtime.Candidates.Intra);
  let show kind name =
    let cs = Report.coarse_summary s.report kind in
    Format.fprintf ppf
      "%s inconsistencies: %d (validated FP %d, whitelisted %d, bugs %d, unvalidated %d)@." name
      cs.Report.total cs.Report.validated_fp cs.Report.whitelisted_fp cs.Report.bugs
      cs.Report.pending
  in
  show Runtime.Candidates.Inter "inter-thread";
  show Runtime.Candidates.Intra "intra-thread";
  let sfp, _, sbugs, _ = Report.sync_summary s.report in
  Format.fprintf ppf
    "synchronization: %d annotations, %d inconsistencies (validated FP %d, bugs %d)@."
    s.annotations
    (List.length (Report.sync_findings s.report))
    sfp sbugs;
  (match Report.hangs s.report with
  | [] -> ()
  | hs ->
      Format.fprintf ppf "hangs: %a@."
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any " x") string int))
        hs);
  (match s.por with
  | None -> ()
  | Some (p : Pmrace.Hub.por_totals) ->
      Format.fprintf ppf
        "partial-order reduction: %d picks pruned over %d campaigns, %d unique traces (%d \
         redundant skipped validation, %d forced wakes)@."
        p.pt_pruned p.pt_campaigns p.pt_unique_traces p.pt_dup_traces p.pt_forced_wakes);
  Format.fprintf ppf "@.unique bug groups:@.";
  List.iter (fun g -> Format.fprintf ppf "  %a@." Report.pp_bug_group g)
    (Report.bug_groups s.report);
  Format.fprintf ppf "@.seeded ground truth:@.";
  List.iter
    (fun ((kb : Pmrace.Target.known_bug), found) ->
      Format.fprintf ppf "  [%s] %a@." (if found then "FOUND" else "MISS") Pmrace.Target.pp_known_bug kb)
    (Fuzzer.found_known_bugs s target);
  if Obs.Metrics.enabled () then begin
    (* Split the headline execs/sec into setup-bound vs run-bound time
       using the campaign phase histograms, so the execution engine's
       reset win (Figure 10) is visible in every session footer. *)
    let hist_sum name =
      List.fold_left
        (fun acc (r : Obs.Metrics.reading) ->
          match r.r_value with
          | Obs.Metrics.Histogram { sum; _ } when String.equal r.r_name name -> acc +. sum
          | _ -> acc)
        0. (Obs.Metrics.snapshot ())
    in
    let counter_sum name =
      List.fold_left
        (fun acc (r : Obs.Metrics.reading) ->
          match r.r_value with
          | Obs.Metrics.Counter n when String.equal r.r_name name -> acc + n
          | _ -> acc)
        0 (Obs.Metrics.snapshot ())
    in
    let setup = hist_sum "campaign_setup_seconds"
    and run = hist_sum "campaign_run_seconds"
    and merge = hist_sum "hub_merge_seconds" in
    if setup +. run > 0. then begin
      let pct x = 100. *. x /. Float.max 1e-9 s.wall_time in
      Format.fprintf ppf
        "@.campaign phases: setup %.3fs (%.1f%%), run %.3fs (%.1f%%), hub merge %.3fs (%.1f%%)@."
        setup (pct setup) run (pct run) merge (pct merge);
      Format.fprintf ppf
        "execs/sec: %.0f setup-bound ceiling, %.0f run-bound (excluding setup)@."
        (float_of_int s.campaigns_run /. Float.max 1e-9 setup)
        (float_of_int s.campaigns_run /. Float.max 1e-9 (s.wall_time -. setup))
    end;
    (* Scheduler hot-path throughput: total scheduling decisions over the
       in-campaign run time.  This is the number the PR-5 hot-path work
       moves; BENCH_hotpath.json has the isolated microbench. *)
    let sched_steps = counter_sum "sched_steps_total" in
    if sched_steps > 0 && run > 0. then
      Format.fprintf ppf "scheduler: %d steps, %.0f steps/sec of campaign run time@."
        sched_steps
        (float_of_int sched_steps /. run);
    Format.fprintf ppf "@.metrics:@.";
    Obs.Metrics.pp ppf ()
  end

let target_conv =
  let parse name =
    match Workloads.Registry.find name with
    | Some t -> Ok t
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown target %S (available: %s)" name
               (String.concat ", " (Workloads.Registry.names ()))))
  in
  Arg.conv (parse, fun ppf (t : Pmrace.Target.t) -> Format.fprintf ppf "%s" t.name)

let workers_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Fuzzer.max_workers -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected a worker count in 1..%d" s
               Fuzzer.max_workers))
  in
  Arg.conv (parse, Format.pp_print_int)

let mode_conv =
  Arg.enum [ ("pmrace", Fuzzer.Mode_pmrace); ("delay", Fuzzer.Mode_delay); ("random", Fuzzer.Mode_random) ]

let fuzz_cmd =
  let target =
    Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET" ~doc:"Target to fuzz.")
  in
  let campaigns =
    Arg.(value & opt int 300 & info [ "campaigns"; "n" ] ~doc:"Number of fuzz campaigns.")
  in
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Master random seed.") in
  let workers =
    Arg.(value & opt workers_conv 1
         & info [ "workers"; "j" ]
             ~doc:
               (Printf.sprintf
                  "Number of fuzzing worker domains sharing coverage (§5), at most %d: OCaml runs \
                   at most 128 domains, the main one included. With 1 the session is \
                   bit-reproducible; with more, the unique-bug set is deterministic but campaign \
                   order is not."
                  Fuzzer.max_workers))
  in
  let mode =
    Arg.(value & opt mode_conv Fuzzer.Mode_pmrace
         & info [ "mode" ] ~doc:"Exploration mode: pmrace, delay, or random.")
  in
  let no_checkpoint =
    Arg.(value & flag
         & info [ "no-checkpoint" ]
             ~doc:"Disable in-memory pool checkpoints: re-run the target's initialisation \
                   before every campaign (Figure 10's reference arm; same results, slower).")
  in
  let no_validate =
    Arg.(value & flag & info [ "no-validate" ] ~doc:"Skip post-failure validation.")
  in
  let no_ie = Arg.(value & flag & info [ "no-ie" ] ~doc:"Disable the interleaving tier.") in
  let no_se = Arg.(value & flag & info [ "no-se" ] ~doc:"Disable the seed tier.") in
  let no_static =
    Arg.(value & flag
         & info [ "no-static" ]
             ~doc:"Skip the static pre-pass (alias-pair denominator, lint, seed prioritisation).")
  in
  let invariants =
    Arg.(value & flag
         & info [ "invariants" ]
             ~doc:
               "Mine likely persistence-ordering invariants in the pre-pass and monitor every \
                campaign for violations (validated post-failure like other candidates).")
  in
  let corpus_sched =
    Arg.(value & flag
         & info [ "corpus-sched" ]
             ~doc:
               "AFL-style corpus scheduling: draw mutation parents from the favored cover of the \
                achieved alias-pair set (recomputed each generation) instead of uniformly from \
                the corpus.")
  in
  let crash_images =
    Arg.(value & opt int 1
         & info [ "crash-images" ] ~docv:"N"
             ~doc:
               "Validate each candidate against up to $(docv) systematically enumerated crash \
                images (per-cacheline drain subsets constrained by fence order) instead of only \
                the single captured image. A candidate is a bug if any enumerated image survives \
                recovery; the artifact records which image index reproduced. Default 1 = the \
                historical single-image behaviour.")
  in
  let por =
    Arg.(value & flag
         & info [ "por" ]
             ~doc:
               "Partial-order reduction: prune scheduler picks that merely commute with the last \
                step (per-fiber sleep sets over instruction footprints) and skip post-failure \
                validation of campaigns whose canonical trace was already explored. The bug set \
                on the planted workloads is unchanged; redundant schedules cost less. Off by \
                default — without it, sessions are bit-identical to previous releases.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log campaign progress.") in
  let report =
    Arg.(value & flag & info [ "report" ] ~doc:"Print detailed bug reports with reproduction inputs.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:
               "Write the session artifact (config, coverage, timeline, bug groups, per-campaign \
                provenance, metrics) as versioned JSON. $(b,pmrace replay) consumes it.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Stream structured session events (campaign boundaries, new alias pairs, \
                   candidates, verdicts) as JSON Lines.")
  in
  let no_metrics =
    Arg.(value & flag
         & info [ "no-metrics" ]
             ~doc:"Disable metrics collection (the default hot-path cost is one atomic load).")
  in
  let run target campaigns seed workers mode no_checkpoint no_validate no_ie no_se no_static
      invariants corpus_sched crash_images por verbose report json_out trace_out no_metrics =
    Obs.Metrics.set_enabled (not no_metrics);
    Obs.Metrics.reset ();
    let cfg =
      Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:seed ~workers ~mode
        ~use_checkpoint:(not no_checkpoint)
        ~validate:(not no_validate) ~interleaving_tier:(not no_ie) ~seed_tier:(not no_se)
        ~static_prepass:(not no_static) ~invariants ~corpus_sched ~crash_images ~por ()
    in
    let log = if verbose then fun m -> Format.eprintf "%s@." m else fun _ -> () in
    let obs, trace_oc =
      match trace_out with
      | None -> (None, None)
      | Some path ->
          let o = Obs.Events.create () in
          let oc = open_out path in
          Obs.Events.attach_jsonl o oc;
          (Some o, Some oc)
    in
    let s = Fuzzer.run ~log ?obs target cfg in
    Option.iter close_out trace_oc;
    print_session Format.std_formatter target s;
    (match json_out with
    | Some path ->
        Pmrace.Artifact.write ~path (Pmrace.Artifact.of_session ~target ~cfg s);
        Format.printf "@.session artifact written to %s@." path
    | None -> ());
    if report then begin
      Format.printf "@.=== detailed bug reports ===@.";
      Pmrace.Bug_report.render_bugs Format.std_formatter s
    end
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a PM system for concurrency bugs")
    Term.(
      const run $ target $ campaigns $ seed $ workers $ mode $ no_checkpoint $ no_validate $ no_ie
      $ no_se $ no_static $ invariants $ corpus_sched $ crash_images $ por $ verbose $ report
      $ json_out $ trace_out $ no_metrics)

let replay_cmd =
  let target =
    Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET" ~doc:"Target to replay.")
  in
  let from =
    Arg.(required & opt (some string) None
         & info [ "from" ] ~docv:"SESSION.json"
             ~doc:"Session artifact written by $(b,pmrace fuzz --json-out).")
  in
  let bug =
    Arg.(value & opt int 0 & info [ "bug" ] ~doc:"Bug group index in the artifact (default 0).")
  in
  let run (target : Pmrace.Target.t) from bug =
    match Pmrace.Artifact.read ~path:from with
    | Error e ->
        Format.eprintf "cannot read %s: %s@." from e;
        exit 2
    | Ok artifact -> (
        match Pmrace.Replay.replay_bug ~target ~artifact ~bug with
        | Error e ->
            Format.eprintf "replay failed: %s@." e;
            exit 2
        | Ok o ->
            Format.printf "replayed campaign %d for bug #%d (%s at %s)@." o.r_campaign bug
              o.r_bug.Pmrace.Artifact.b_kind o.r_bug.Pmrace.Artifact.b_site;
            Option.iter
              (fun g -> Format.printf "  %a@." Report.pp_bug_group g)
              o.Pmrace.Replay.r_group;
            if o.Pmrace.Replay.r_reproduced then begin
              Format.printf "bug fingerprint REPRODUCED@.";
              match o.Pmrace.Replay.r_image_index with
              | Some i when i > 0 ->
                  Format.printf "reproduced on enumerated crash image #%d (recorded: %s)@." i
                    (match o.r_bug.Pmrace.Artifact.b_image_index with
                    | Some r -> string_of_int r
                    | None -> "none")
              | Some _ | None -> ()
            end
            else begin
              Format.printf "bug fingerprint NOT reproduced@.";
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-execute one recorded campaign and check the bug reappears")
    Term.(const run $ target $ from $ bug)

let analyze_cmd =
  let target =
    Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET" ~doc:"Target to analyse.")
  in
  let seeds =
    Arg.(value & opt int Pmrace.Analyze.default_config.Pmrace.Analyze.seeds
         & info [ "seeds" ] ~doc:"Number of seed executions to record and analyse.")
  in
  let master_seed =
    Arg.(value & opt int Pmrace.Analyze.default_config.Pmrace.Analyze.master_seed
         & info [ "seed" ] ~doc:"Master random seed for the recorded executions.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with a nonzero status when the lint pass has $(i,any) finding \
                   (equivalent to $(b,--fail-on low)).")
  in
  let fail_on =
    let sev_conv =
      Arg.enum
        [ ("high", Analysis.Lint.High); ("medium", Analysis.Lint.Medium); ("low", Analysis.Lint.Low) ]
    in
    Arg.(value
         & opt ~vopt:(Some Analysis.Lint.Medium) (some sev_conv) None
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:
               "Exit with a nonzero status when any finding has this severity or worse \
                (high, medium, or low; plain $(b,--fail-on) means medium).  The CI gate uses \
                this, so Low-severity performance lints never flap the build.")
  in
  let basic =
    Arg.(value & flag
         & info [ "basic" ]
             ~doc:"Run only the four first-generation lint rules: no taxonomy detectors, no \
                   invariant mining, no recovery replay.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full finding reports.") in
  let run (target : Pmrace.Target.t) seeds master_seed strict fail_on basic verbose =
    let base = if basic then Pmrace.Analyze.default_config else Pmrace.Analyze.full_config in
    let cfg = { base with Pmrace.Analyze.seeds; master_seed } in
    let r = Pmrace.Analyze.run ~cfg target in
    Format.printf "== %s: offline persistency analysis over %d executions ==@." target.name
      r.Analysis.Analyzer.r_executions;
    Analysis.Analyzer.pp_report Format.std_formatter r;
    if verbose && r.Analysis.Analyzer.r_findings <> [] then begin
      Format.printf "@.=== detailed lint reports ===@.";
      Pmrace.Bug_report.render_lint Format.std_formatter r.Analysis.Analyzer.r_findings
    end;
    let threshold = if strict then Some Analysis.Lint.Low else fail_on in
    match threshold with
    | None -> ()
    | Some sev ->
        let rank = Analysis.Lint.severity_rank sev in
        let failing =
          List.filter
            (fun (f : Analysis.Lint.finding) -> Analysis.Lint.severity_rank f.f_severity <= rank)
            r.Analysis.Analyzer.r_findings
        in
        if failing <> [] then begin
          Format.printf "@.%d finding(s) at or above the %a gate@." (List.length failing)
            Analysis.Lint.pp_severity sev;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Offline persistency analysis: site graph, alias-pair denominator, lint and taxonomy \
          detectors, likely-invariant mining")
    Term.(const run $ target $ seeds $ master_seed $ strict $ fail_on $ basic $ verbose)

let list_cmd =
  let run () =
    List.iter
      (fun (t : Pmrace.Target.t) ->
        Format.printf "%-16s %-10s %-24s %s@." t.name t.version t.scope t.concurrency)
      Workloads.Registry.with_examples
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available targets") Term.(const run $ const ())

let inspect_cmd =
  let target =
    Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET" ~doc:"Target.")
  in
  let run (target : Pmrace.Target.t) =
    Format.printf "%s (%s) — %s, %s@." target.name target.version target.scope target.concurrency;
    Format.printf "pool: %d words; engine: %s@." target.pool_words
      (if Pmrace.Engine.persistent (Pmrace.Engine.create ~capture:Runtime.Checkers.none target) then
         "persistent (initialised once, reset from an in-memory checkpoint)"
       else "fresh (initialised per campaign)");
    Format.printf "default whitelist: %a@." Fmt.(list ~sep:(any ", ") string) target.whitelist_sites;
    Format.printf "seeded bugs:@.";
    List.iter (fun kb -> Format.printf "  %a@." Pmrace.Target.pp_known_bug kb) target.known_bugs
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Show a target's seeded ground truth") Term.(const run $ target)

let hub_cmd =
  let store_dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:
               "Durable store directory (created if absent).  Restarting a hub on the same \
                directory resumes its budget ledger, aggregate coverage, bug set and corpus.")
  in
  let target =
    Arg.(required & opt (some target_conv) None
         & info [ "target" ] ~docv:"TARGET" ~doc:"Target this hub serves; worker mismatches are refused.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (default $(i,DIR)/hub.sock).")
  in
  let budget =
    Arg.(value & opt int 300
         & info [ "budget"; "n" ]
             ~doc:"Total campaign budget across all workers and hub restarts.")
  in
  let campaigns_per_lease =
    Arg.(value & opt int 30
         & info [ "campaigns-per-lease" ] ~doc:"Campaign-grant cap per lease request.")
  in
  let seeds_per_lease =
    Arg.(value & opt int 4
         & info [ "seeds-per-lease" ] ~doc:"Favored corpus seeds handed out per lease.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log attach/lease/delta traffic.") in
  let run store_dir (target : Pmrace.Target.t) socket budget campaigns_per_lease seeds_per_lease
      verbose =
    let socket_path =
      match socket with Some p -> p | None -> Filename.concat store_dir "hub.sock"
    in
    let log = if verbose then fun m -> Format.eprintf "%s@." m else fun _ -> () in
    let cfg =
      {
        Fleet.Coordinator.socket_path;
        store_dir;
        target = target.Pmrace.Target.name;
        budget;
        campaigns_per_lease;
        seeds_per_lease;
        log;
      }
    in
    match Fleet.Coordinator.serve cfg with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 2
    | Ok st ->
        Format.printf "hub drained: %d campaigns, %d unique bugs, %d workers served@."
          st.Fleet.Coordinator.st_campaigns st.st_bugs st.st_clients
  in
  Cmd.v
    (Cmd.info "hub"
       ~doc:
         "Run a fleet coordinator: a durable corpus/coverage hub that leases campaign budget to \
          $(b,pmrace worker) processes")
    Term.(
      const run $ store_dir $ target $ socket $ budget $ campaigns_per_lease $ seeds_per_lease
      $ verbose)

let worker_cmd =
  let target =
    Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET" ~doc:"Target to fuzz.")
  in
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"PATH" ~doc:"The hub's Unix-domain socket.")
  in
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Master random seed (the worker's \
                                                            streams also mix in its hub-assigned \
                                                            index).")
  in
  let max_campaigns =
    Arg.(value & opt (some int) None
         & info [ "max-campaigns" ] ~docv:"N"
             ~doc:"Detach after N local campaigns even if budget remains (the hub reclaims the \
                   rest of the lease).")
  in
  let no_static =
    Arg.(value & flag & info [ "no-static" ] ~doc:"Skip the static pre-pass.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Write this worker's local session shard as an artifact; combine shards with \
                   $(b,pmrace merge).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log campaign progress.") in
  let run (target : Pmrace.Target.t) connect seed max_campaigns no_static json_out verbose =
    let log = if verbose then fun m -> Format.eprintf "%s@." m else fun _ -> () in
    let cfg =
      Fuzzer.Config.make ~master_seed:seed ~static_prepass:(not no_static) ()
    in
    let wcfg = { Fleet.Worker.default_config with connect; cfg; max_local = max_campaigns; log } in
    match Fleet.Worker.run wcfg target with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 2
    | Ok o ->
        Format.printf "worker %d: %d campaigns@." o.Fleet.Worker.o_widx o.o_campaigns;
        print_session Format.std_formatter target o.o_session;
        (match json_out with
        | Some path ->
            Pmrace.Artifact.write ~path (Pmrace.Artifact.of_session ~target ~cfg o.o_session);
            Format.printf "@.shard artifact written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "worker" ~doc:"Run one fleet fuzzing worker attached to a $(b,pmrace hub)")
    Term.(const run $ target $ connect $ seed $ max_campaigns $ no_static $ json_out $ verbose)

let merge_cmd =
  let inputs =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"SHARD.json" ~doc:"Session artifacts of the same target.")
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"OUT.json" ~doc:"Merged artifact path.")
  in
  let run inputs out =
    let shards =
      List.map
        (fun path ->
          match Pmrace.Artifact.read ~path with
          | Error e ->
              Format.eprintf "cannot read %s: %s@." path e;
              exit 2
          | Ok a -> (Filename.basename path, a))
        inputs
    in
    match Pmrace.Artifact.merge shards with
    | Error e ->
        Format.eprintf "merge failed: %s@." e;
        exit 2
    | Ok merged ->
        Pmrace.Artifact.write ~path:out merged;
        Format.printf "merged %d shards: %d campaigns, %d unique bugs, %d site pairs -> %s@."
          (List.length shards) merged.Pmrace.Artifact.a_campaigns
          (List.length merged.Pmrace.Artifact.a_bugs)
          (List.length merged.Pmrace.Artifact.a_site_pairs)
          out
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Union session artifacts of one target into a single artifact with per-origin \
          provenance; campaign indices are re-based so $(b,pmrace replay) still works")
    Term.(const run $ inputs $ out)

let () =
  let doc = "PMRace: PM-aware coverage-guided fuzzing for persistent-memory concurrency bugs" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pmrace" ~doc)
          [ fuzz_cmd; replay_cmd; analyze_cmd; list_cmd; inspect_cmd; hub_cmd; worker_cmd; merge_cmd ]))
