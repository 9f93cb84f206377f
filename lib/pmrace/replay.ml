(* Replay one recorded campaign and check the bug reappears.

   The campaign is reconstructed exactly as the fuzzer ran it: same seed,
   same scheduler seed, same policy spec (for a Pmrace policy this
   includes the sync-point queue entry and skip count), same execution
   parameters from the recorded config.  Determinism of the scheduler and
   the policy RNG split makes the re-execution bit-identical, so the same
   unique inconsistency is rediscovered and revalidated. *)

type outcome = {
  r_bug : Artifact.bug;
  r_campaign : int;
  r_reproduced : bool;
  r_groups : Report.bug_group list;
  r_image_index : int option;
      (* crash-image index the bug reproduced on this run, when it did *)
}

let replay_bug ~(target : Target.t) ~(artifact : Artifact.t) ~bug =
  if not (String.equal target.Target.name artifact.Artifact.a_target) then
    Error
      (Printf.sprintf "artifact was recorded for target %S, not %S" artifact.Artifact.a_target
         target.Target.name)
  else
    match List.nth_opt artifact.a_bugs bug with
    | None ->
        Error (Printf.sprintf "no bug #%d (artifact has %d)" bug (List.length artifact.a_bugs))
    | Some b -> (
        match b.b_first_campaign with
        | None -> Error (Printf.sprintf "bug #%d has no recorded first campaign" bug)
        | Some campaign -> (
            match Artifact.find_provenance artifact campaign with
            | None -> Error (Printf.sprintf "no provenance for campaign %d" campaign)
            | Some p ->
                let cfg = artifact.a_config in
                (* Mirror Fuzzer.run's execution setup exactly: contexts
                   come from an engine configured like the recorded
                   session's workers (checkpoint decision included) — a
                   checkout is observationally identical to the fresh
                   setup the fuzzer used to do, so replays stay
                   bit-faithful. *)
                let engine =
                  Engine.create ~evict_prob:cfg.evict_prob ~eadr:cfg.eadr
                    ~use_checkpoint:cfg.use_checkpoint target
                in
                (* POR changes which fibers the scheduler may pick, so a
                   campaign recorded under --por only re-executes
                   bit-identically when replayed under POR too.  Replay
                   has no trace-dedup consumer, though: digesting is pure
                   observation (the sleep sets never read the hash), so
                   it is short-circuited entirely. *)
                let input =
                  Campaign.input ~sched_seed:p.pr_sched_seed ~policy:p.pr_spec
                    ~step_budget:cfg.step_budget ~por:cfg.por ~por_digest:false target p.pr_seed
                in
                let result = Campaign.run ~engine input in
                let report = Report.create () in
                let findings =
                  Report.absorb ~campaign report result.env ~hung:result.hung
                    ~hang_info:(Campaign.hang_info result)
                in
                let whitelist =
                  Whitelist.create (target.Target.whitelist_sites @ cfg.whitelist_extra)
                in
                (* The recorded session validated with cfg.crash_images
                   images; make sure the budget also covers the recorded
                   image index, so a bug found on enumerated image #i is
                   reached again even if the config somehow says less. *)
                let images =
                  match b.b_image_index with
                  | Some i -> max cfg.crash_images (i + 1)
                  | None -> cfg.crash_images
                in
                let vctx = Post_failure.ctx ~images ~whitelist target in
                List.iter (fun f -> ignore (Report.validate vctx f)) findings;
                let groups = Report.bug_groups report in
                let reproduced =
                  List.exists
                    (fun (g : Report.bug_group) ->
                      String.equal (Report.kind_slug g.bg_kind) b.b_kind
                      && String.equal g.bg_site b.b_site)
                    groups
                in
                (* Which enumerated image the bug came back on: the
                   smallest index among the bug verdicts at its site. *)
                let r_image_index =
                  List.fold_left
                    (fun acc (f : Report.finding) ->
                      match f.verdict with
                      | Some (Post_failure.Bug { image_index; _ })
                        when String.equal (Report.site f) b.b_site ->
                          Some (Option.fold ~none:image_index ~some:(min image_index) acc)
                      | _ -> acc)
                    None findings
                in
                Ok
                  {
                    r_bug = b;
                    r_campaign = campaign;
                    r_reproduced = reproduced;
                    r_groups = groups;
                    r_image_index;
                  }))
