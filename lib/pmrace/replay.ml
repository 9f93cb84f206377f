(* Replay one recorded campaign and check the bug reappears.

   The campaign is reconstructed exactly as the fuzzer ran it: same seed,
   same scheduler seed, same policy spec (for a Pmrace policy this
   includes the sync-point queue entry and skip count), same execution
   parameters from the recorded config.  Determinism of the scheduler and
   the policy RNG split makes the re-execution bit-identical, so the same
   unique inconsistency is rediscovered.  Only the findings of the bug's
   own (kind, site) are revalidated: the rest of the campaign's findings
   cannot change whether that group comes back. *)

module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates

type outcome = {
  r_bug : Artifact.bug;
  r_campaign : int;
  r_reproduced : bool;
  r_group : Report.bug_group option; (* the bug's group, when it reappeared *)
  r_image_index : int option;
      (* crash-image index the bug reproduced on this run, when it did *)
}

(* Mirror Fuzzer.run's execution setup exactly: contexts come from an
   engine configured like the recorded session's workers (checkpoint
   decision included) — a checkout is observationally identical to the
   fresh setup the fuzzer used to do, so replays stay bit-faithful.  POR
   changes which fibers the scheduler may pick, so a campaign recorded
   under --por only re-executes bit-identically when replayed under POR
   too. *)
let rerun ~(target : Target.t) ~(artifact : Artifact.t) ~capture =
  let cfg = artifact.a_config in
  let engine =
    Engine.create ~capture ~eadr:cfg.eadr ~use_checkpoint:cfg.use_checkpoint target
  in
  fun (p : Artifact.prov_entry) ->
    Campaign.run ~engine
      (Campaign.input ~sched_seed:p.pr_sched_seed ~policy:p.pr_spec ~por:cfg.por target
         p.pr_seed)

(* Replay validates only the group's findings, so only they need a crash
   surface: inconsistencies whose kind and write site are the group's, or
   sync events of its variable.  Sites are compared by name, and a name
   is never registered here: that would shift the ids later sites get. *)
let group_capture (b : Artifact.bug) =
  if String.equal b.b_kind (Report.kind_slug `Sync) then
    { Checkers.inc = (fun _ -> false); sync = (fun name _ -> String.equal name b.b_site) }
  else
    {
      Checkers.inc =
        (fun k ->
          let cand = k lsr Candidates.site_bits in
          let kind =
            match Candidates.key_kind cand with Candidates.Inter -> `Inter | Intra -> `Intra
          in
          String.equal (Report.kind_slug kind) b.b_kind
          && String.equal
               (Runtime.Instr.name (Runtime.Instr.of_int (fst (Candidates.key_pair cand))))
               b.b_site);
      sync = (fun _ _ -> false);
    }

let replay_bug ~(target : Target.t) ~(artifact : Artifact.t) ~bug =
  if not (String.equal target.Target.name artifact.Artifact.a_target) then
    Error
      (Printf.sprintf "artifact was recorded for target %S, not %S" artifact.Artifact.a_target
         target.Target.name)
  else
    match if bug < 0 then None else List.nth_opt artifact.a_bugs bug with
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
                let result = rerun ~target ~artifact ~capture:(group_capture b) p in
                let report = Report.create () in
                let findings =
                  Report.absorb ~campaign report result.env ~hung:result.hung
                    ~hang_info:(Campaign.hang_info result)
                in
                let whitelist = Whitelist.create target.Target.whitelist_sites in
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
                (* Only the bug's own (kind, site) candidates decide the
                   answer, so only they are validated: verdicts are
                   independent of one another (the recovery memo caches
                   outcomes, never verdicts), and an unvalidated finding
                   joins no group. *)
                let candidates =
                  List.filter
                    (fun f ->
                      String.equal (Report.kind_slug (Report.kind f)) b.b_kind
                      && String.equal (Report.site f) b.b_site)
                    findings
                in
                List.iter (fun f -> ignore (Report.validate vctx f)) candidates;
                (* Which enumerated image the bug came back on: the
                   smallest index among its candidates' bug verdicts. *)
                let r_image_index =
                  List.fold_left
                    (fun acc (f : Report.finding) ->
                      match f.verdict with
                      | Some (Post_failure.Bug { image_index; _ }) ->
                          Some (Option.fold ~none:image_index ~some:(min image_index) acc)
                      | _ -> acc)
                    None candidates
                in
                Ok
                  {
                    r_bug = b;
                    r_campaign = campaign;
                    r_reproduced = Option.is_some r_image_index;
                    (* Only candidates carry verdicts: one group at most. *)
                    r_group =
                      (match Report.bug_groups report with g :: _ -> Some g | [] -> None);
                    r_image_index;
                  }))
