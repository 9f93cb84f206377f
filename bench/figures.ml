(* Reproductions of the paper's figures (evaluation §6.4, §6.5). *)

module Fuzzer = Pmrace.Fuzzer

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* Figure 8: the time to identify PM Inter-thread Inconsistencies —
   PMRace's PM-aware scheduling vs random delay injection.  Each printed
   point is an execution in which at least one new unique inter-thread
   inconsistency was detected, with its wall-clock offset.

   The series is read from the session's JSON artifact (the same encoding
   [pmrace fuzz --json-out] writes and CI archives), demonstrating that
   the artifact carries everything the figure needs. *)

let fig8_targets = [ Workloads.Pclht.target; Workloads.Fastfair.target; Workloads.Memcached.target ]

let fig8 ppf =
  Format.fprintf ppf
    "@.Figure 8: time to identify PM Inter-thread Inconsistency (PMRace vs Delay-Inj).@.";
  List.iter
    (fun (target : Pmrace.Target.t) ->
      hr ppf;
      Format.fprintf ppf "%s@." target.name;
      List.iter
        (fun (label, mode) ->
          let a = Sessions.artifact ~mode target in
          let hits =
            List.filter
              (fun (p : Fuzzer.timeline_point) -> p.tp_new_inter)
              a.Pmrace.Artifact.a_timeline
          in
          let first =
            match hits with
            | p :: _ -> Printf.sprintf "first at campaign %d (%.3fs)" p.tp_campaign p.tp_time
            | [] -> "none found"
          in
          Format.fprintf ppf "  %-9s: %2d inconsistency-revealing executions; %s; total %d found@."
            label (List.length hits) first
            (match List.rev hits with p :: _ -> p.tp_inter_unique | [] -> 0);
          Format.fprintf ppf "    points (campaign@@seconds):";
          List.iteri
            (fun i (p : Fuzzer.timeline_point) ->
              if i < 12 then Format.fprintf ppf " %d@@%.3f" p.tp_campaign p.tp_time)
            hits;
          if List.length hits > 12 then Format.fprintf ppf " ...";
          Format.fprintf ppf "@.")
        [ ("PMRace", Fuzzer.Mode_pmrace); ("Delay-Inj", Fuzzer.Mode_delay) ])
    fig8_targets;
  hr ppf

(* ------------------------------------------------------------------ *)
(* Figure 9: runtime-coverage of PMRace on P-CLHT, with the
   interleaving-tier (IE) and seed-tier (SE) ablations. *)

let fig9 ppf =
  Format.fprintf ppf "@.Figure 9: runtime-coverage of PMRace with P-CLHT (ablations).@.";
  hr ppf;
  let series =
    [
      ("PMRace", true, true);
      ("w/o IE", false, true);
      ("w/o SE", true, false);
    ]
  in
  let sessions =
    List.map
      (fun (label, ie, se) ->
        (label, Sessions.run ~interleaving_tier:ie ~seed_tier:se Workloads.Pclht.target))
      series
  in
  Format.fprintf ppf "%-10s" "campaign";
  List.iter (fun (l, _) -> Format.fprintf ppf " %16s" l) sessions;
  Format.fprintf ppf
    "   (coverage bits / unique inter-thread inconsistencies;@.%s both are fuzzing feedback, cf. step 5 of Fig. 4)@."
    (String.make 10 ' ');
  let sample = [ 1; 5; 10; 20; 40; 80; 120; 200; 300; 400 ] in
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10d" c;
      List.iter
        (fun (_, (s : Fuzzer.session)) ->
          let cov, inc =
            List.fold_left
              (fun (cov, inc) (p : Fuzzer.timeline_point) ->
                if p.tp_campaign <= c then
                  (max cov (p.tp_alias_bits + p.tp_branch_bits), max inc p.tp_inter_unique)
                else (cov, inc))
              (0, 0) s.timeline
          in
          Format.fprintf ppf " %11d / %2d" cov inc)
        sessions;
      Format.fprintf ppf "@.")
    sample;
  hr ppf

(* ------------------------------------------------------------------ *)
(* Figure 10: the impact of in-memory checkpoints on fuzzing speed.
   For each system we measure campaign throughput with and without
   checkpoint reuse of the initialised pool. *)

let throughput (target : Pmrace.Target.t) ~use_checkpoint ~campaigns =
  let cfg =
    Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:21 ~use_checkpoint ~validate:false
      ~mode:Fuzzer.Mode_random ()
  in
  let t0 = Obs.Clock.now () in
  let s = Fuzzer.run target cfg in
  let dt = Float.max 1e-9 (Obs.Clock.elapsed t0) in
  float_of_int s.campaigns_run /. dt

let fig10 ppf =
  Format.fprintf ppf "@.Figure 10: the impact of in-memory checkpoints (CP) on fuzzing speed.@.";
  hr ppf;
  Format.fprintf ppf "%-15s %14s %14s %10s@." "Systems" "no-CP (exec/s)" "CP (exec/s)" "speedup";
  hr ppf;
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let campaigns = 60 in
      let no_cp = throughput target ~use_checkpoint:false ~campaigns in
      let cp = throughput target ~use_checkpoint:true ~campaigns in
      Format.fprintf ppf "%-15s %14.0f %14.0f %9.2fx@." target.name no_cp cp (cp /. no_cp))
    Workloads.Registry.all;
  hr ppf;
  Format.fprintf ppf
    "(CP rows run on the persistent-mode engine: one context per worker,@.";
  Format.fprintf ppf
    " O(touched)-word pool resets between campaigns — see the `engine' bench section)@."
