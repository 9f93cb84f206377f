(* The reused post-failure recovery context against its specification.

   Validation boots one recovery environment per context in place
   ([Runtime.Env.boot]) instead of allocating a fresh [Runtime.Env.of_image]
   per crash image.  For every registered workload, a short seeded session
   at --crash-images 4 supplies the candidates; each is validated through
   one reused context, and every enumerated image is recovered both in that
   context and in a fresh [of_image] boot.  Verdicts, image indices,
   overwritten-word sets and post-recovery pools must agree.  The
   adversarial case leaves the recovery environment dirty in every layer
   between recoveries.  Replay, which validates only the replayed bug's
   candidates, is checked against validating every finding of the
   replayed campaign. *)

module CI = Pmem.Crash_images
module Pool = Pmem.Pool
module Env = Runtime.Env
module Checkers = Runtime.Checkers
module Post = Pmrace.Post_failure

let budget = 4

(* ------------------------------------------------------------------ *)
(* The specification: a freshly allocated world per image.             *)
(* ------------------------------------------------------------------ *)

type outcome = { env : Env.t; overwritten : int list; hung : bool }

let sorted_words tbl = List.sort Int.compare (Hashtbl.fold (fun w () acc -> w :: acc) tbl [])

let fresh_recovery (target : Pmrace.Target.t) img =
  let env = Env.of_image img in
  target.annotate env;
  let overwritten = Hashtbl.create 64 in
  Env.add_listener env (function
    | Env.Ev_store { addr; _ } | Env.Ev_movnt { addr; _ } -> Hashtbl.replace overwritten addr ()
    | Env.Ev_load _ | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ());
  let hung =
    match target.recover env with
    | () -> false
    | exception (Runtime.Mem.Stuck _ | Sched.Scheduler.Killed) -> true
  in
  { env; overwritten = sorted_words overwritten; hung }

let reused_recovery rctx st delta =
  let r = Post.run_recovery ~delta:(CI.boot_delta st delta) rctx (CI.base st) in
  { env = r.env; overwritten = List.sort Int.compare (Array.to_list r.overwritten); hung = r.hung }

let image st idx =
  match CI.image st idx with Some img -> img | None -> Alcotest.failf "image %d missing" idx

(* The §4.4 verdict rule over fresh boots: skip images in which the crash
   itself drained the inconsistency's source, spend budget on the rest,
   and report the first image recovery does not fix. *)
let reference_verdict target cand st =
  let skip delta =
    match cand with
    | Post.Candidate.Inconsistency inc ->
        List.mem_assoc inc.Checkers.source.Runtime.Candidates.addr delta
    | Post.Candidate.Sync _ | Post.Candidate.Ordering _ -> false
  in
  let fixed o =
    match cand with
    | Post.Candidate.Inconsistency inc ->
        inc.Checkers.eff_words <> []
        && List.for_all (fun w -> List.mem w o.overwritten) inc.Checkers.eff_words
    | Post.Candidate.Sync ev ->
        Int64.equal (Pool.peek o.env.Env.pool ev.Checkers.sy_addr) ev.Checkers.var.Checkers.sv_init
    | Post.Candidate.Ordering _ -> Alcotest.fail "no ordering candidates without --invariants"
  in
  let rec go seq left =
    if left = 0 then Post.Validated_fp
    else
      match seq () with
      | Seq.Nil -> Post.Validated_fp
      | Seq.Cons ((idx, delta), rest) ->
          if skip delta then go rest left
          else
            let o = fresh_recovery target (image st idx) in
            if o.hung then Post.Bug { recovery_hang = true; image_index = idx }
            else if fixed o then go rest (left - 1)
            else Post.Bug { recovery_hang = false; image_index = idx }
  in
  go (CI.to_seq st) budget

(* ------------------------------------------------------------------ *)
(* Comparisons.                                                        *)
(* ------------------------------------------------------------------ *)

let verdict = Alcotest.testable Post.pp_verdict ( = )

(* Every word's value, durable value and metadata. *)
let pool_state p =
  let img = Pool.crash_image p in
  List.init (Pool.size p) (fun w ->
      (Pool.peek p w, Pool.image_word img w, Pool.is_dirty p w, Pool.is_pending p w))

let check_outcome label spec got =
  Alcotest.(check bool) (label ^ ": hung") spec.hung got.hung;
  Alcotest.(check (list int)) (label ^ ": overwritten words") spec.overwritten got.overwritten;
  if pool_state spec.env.Env.pool <> pool_state got.env.Env.pool then
    Alcotest.failf "%s: post-recovery pool differs from a fresh boot" label

(* The candidates a session captured, in the order it found them. *)
let candidates (s : Pmrace.Fuzzer.session) =
  List.filter_map
    (fun (f : Pmrace.Report.finding) ->
      match f.subject with
      | Pmrace.Report.Inconsistency inc ->
          Option.map (fun st -> (Post.Candidate.Inconsistency inc, st)) inc.Checkers.crash
      | Pmrace.Report.Sync ev ->
          Option.map (fun st -> (Post.Candidate.Sync ev, st)) ev.Checkers.sy_crash
      | Pmrace.Report.Invariant _ -> None)
    (Pmrace.Report.findings s.report @ Pmrace.Report.sync_findings s.report)

let session_config =
  Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~crash_images:budget ~master_seed:5 ()

let session target = Pmrace.Fuzzer.run target session_config

(* ------------------------------------------------------------------ *)
(* One reused context ≡ a fresh boot per image, on every workload.     *)
(* ------------------------------------------------------------------ *)

let test_differential (target : Pmrace.Target.t) () =
  let cands = candidates (session target) in
  if cands = [] then Alcotest.failf "%s: the session captured no candidate" target.name;
  let rctx = Post.ctx ~images:budget target in
  List.iteri
    (fun i (cand, st) ->
      let label = Printf.sprintf "%s candidate %d" target.name i in
      Alcotest.check verdict (label ^ ": verdict") (reference_verdict target cand st)
        (Post.validate rctx cand);
      Seq.iter
        (fun (idx, delta) ->
          check_outcome
            (Printf.sprintf "%s image %d" label idx)
            (fresh_recovery target (image st idx))
            (reused_recovery rctx st delta))
        (Seq.take budget (CI.to_seq st)))
    cands

(* ------------------------------------------------------------------ *)
(* Adversarial: a recovery world left dirty in every layer.            *)
(* ------------------------------------------------------------------ *)

let adversary_key : int Runtime.Dram.key = Runtime.Dram.key ~name:"test-recovery-adversary" ()

let vandalise leaked (env : Env.t) =
  let pool = env.Env.pool in
  for w = 0 to Pool.size pool - 1 do
    Pool.store pool ~tid:9 ~instr:0 w 0xDEADBEEFL
  done;
  Pool.clwb pool 0 (* line 0 pending, the rest dirty *);
  Runtime.Dram.set env.Env.dram adversary_key 12345;
  Env.set_mem_taint env 7 (Runtime.Taint.singleton 41);
  Env.annotate_sync env ~name:"bogus-var" ~addr:3 ~len:1 ~init:77L;
  Env.add_listener env (fun _ -> incr leaked);
  Env.set_policy env Env.preempt_policy;
  env.Env.evict_prob <- 1.0

(* Around each candidate the world is vandalised twice: once on the
   previous candidate's base image (the next boot is a compare pass over
   a different image) and once on its own (the next boot is a journal
   rewind).  After either, verdicts and the post-recovery pool of the base
   image must match fresh boots. *)
let test_adversarial (target : Pmrace.Target.t) () =
  let cands = candidates (session target) in
  if cands = [] then Alcotest.failf "%s: the session captured no candidate" target.name;
  let rctx = Post.ctx ~images:budget target in
  let leaked = ref 0 in
  (* The context holds its world weakly; pinning the vandalised one makes
     sure the next recovery boots it rather than a fresh one. *)
  let pinned = ref None in
  let vandalise_world st =
    let env = (Post.run_recovery ~delta:(CI.boot_delta st []) rctx (CI.base st)).env in
    vandalise leaked env;
    pinned := Some env
  in
  let check_base label spec st =
    let got = reused_recovery rctx st [] in
    Alcotest.(check bool) (label ^ ": vandalised world reused") true
      (Option.get !pinned == got.env);
    check_outcome label spec got
  in
  ignore
    (List.fold_left
       (fun (i, prev) (cand, st) ->
         let label = Printf.sprintf "%s candidate %d" target.name i in
         let spec = reference_verdict target cand st in
         let base_spec = fresh_recovery target (image st 0) in
         vandalise_world prev;
         check_base (label ^ ": base image, other base vandalised") base_spec st;
         vandalise_world prev;
         Alcotest.check verdict (label ^ ": verdict, other base vandalised") spec
           (Post.validate rctx cand);
         vandalise_world st;
         Alcotest.check verdict (label ^ ": verdict, same base vandalised") spec
           (Post.validate rctx cand);
         vandalise_world st;
         check_base (label ^ ": base image, same base vandalised") base_spec st;
         (i + 1, st))
       (0, snd (List.hd cands))
       cands);
  Alcotest.(check int) "vandal listeners never ran" 0 !leaked

let workloads = Workloads.Registry.with_examples @ Workloads.Registry.planted

(* ------------------------------------------------------------------ *)
(* The per-surface recovery memo ≡ no memo.                            *)
(* ------------------------------------------------------------------ *)

let kind = function
  | Post.Candidate.Inconsistency _ -> "inconsistency"
  | Post.Candidate.Sync _ -> "sync"
  | Post.Candidate.Ordering _ -> "ordering"

(* figure1 with a recovery that takes the persistent lock g instead of
   resetting it: on every crash image where g persisted held, recovery
   spins until [Mem.Stuck] — a recovery hang.  The lock site is figure1's
   own, so no new instruction site is registered. *)
let figure1_lock_recovery : Pmrace.Target.t =
  let target = Workloads.Figure1.target in
  {
    target with
    name = "figure1-lock-recovery";
    recover =
      (fun env ->
        let ctx = Env.ctx env ~tid:(-2) in
        let instr = Runtime.Instr.site "figure1.c:lock_g" in
        let g = Runtime.Tval.of_int Workloads.Figure1.g_off in
        Runtime.Mem.spin_lock ctx ~instr g;
        Runtime.Mem.unlock ctx ~instr g);
  }

(* Every candidate of every workload's session, validated in session
   order through one shared (memoising) context, against a fresh context
   per candidate, whose memo is empty: same verdict, image index and hang
   flag.  Candidates confirmed at one instant share a surface, so the
   shared context answers most of their images from the memo.  The
   candidates must cover Sync events, a recovery hang and shared
   surfaces, or the memo's riskier paths went unexercised. *)
let test_memo_equivalence () =
  let syncs = ref 0 and hangs = ref 0 and shared = ref 0 in
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let cands = candidates (session target) in
      let rctx = Post.ctx ~images:budget target in
      ignore
        (List.fold_left
           (fun (i, prev) (cand, st) ->
             let label = Printf.sprintf "%s %s candidate %d" target.name (kind cand) i in
             let memo_free = Post.validate (Post.ctx ~images:budget target) cand in
             Alcotest.check verdict label memo_free (Post.validate rctx cand);
             (match cand with Post.Candidate.Sync _ -> incr syncs | _ -> ());
             (match memo_free with Post.Bug { recovery_hang = true; _ } -> incr hangs | _ -> ());
             if Option.fold ~none:false ~some:(fun p -> p == st) prev then incr shared;
             (i + 1, Some st))
           (0, None) cands))
    (workloads @ [ figure1_lock_recovery ]);
  if !syncs = 0 then Alcotest.fail "no Sync candidate validated";
  if !hangs = 0 then Alcotest.fail "no recovery hang among the verdicts";
  if !shared = 0 then Alcotest.fail "no two consecutive candidates shared a surface"

(* ------------------------------------------------------------------ *)
(* Targeted replay ≡ validating the whole replayed campaign.           *)
(* ------------------------------------------------------------------ *)

module Report = Pmrace.Report
module Artifact = Pmrace.Artifact

let of_bug (b : Artifact.bug) f =
  String.equal (Report.kind_slug (Report.kind f)) b.b_kind && String.equal (Report.site f) b.b_site

(* The replay reference: re-execute the bug's first campaign exactly as
   the fuzzer ran it, validate every finding, then read the bug's
   (kind, site) group and the smallest image index among that group's
   bug verdicts.  Also returns how many of the campaign's findings are
   the bug's candidates. *)
let reference_replay (target : Pmrace.Target.t) (art : Artifact.t) (b : Artifact.bug) =
  let cfg : Pmrace.Fuzzer.config = art.a_config in
  let campaign = Option.get b.b_first_campaign in
  let p = Option.get (Artifact.find_provenance art campaign) in
  let engine =
    Pmrace.Engine.create ~evict_prob:cfg.evict_prob ~eadr:cfg.eadr
      ~use_checkpoint:cfg.use_checkpoint target
  in
  let result =
    Pmrace.Campaign.run ~engine
      (Pmrace.Campaign.input ~sched_seed:p.pr_sched_seed ~policy:p.pr_spec
         ~step_budget:cfg.step_budget ~por:cfg.por target p.pr_seed)
  in
  let report = Report.create () in
  let findings =
    Report.absorb ~campaign report result.env ~hung:result.hung
      ~hang_info:(Pmrace.Campaign.hang_info result)
  in
  let images =
    match b.b_image_index with
    | Some i -> max cfg.crash_images (i + 1)
    | None -> cfg.crash_images
  in
  let whitelist = Pmrace.Whitelist.create (target.whitelist_sites @ cfg.whitelist_extra) in
  let vctx = Post.ctx ~images ~whitelist target in
  List.iter (fun f -> ignore (Report.validate vctx f)) findings;
  let group =
    List.find_opt
      (fun (g : Report.bug_group) ->
        String.equal (Report.kind_slug g.bg_kind) b.b_kind && String.equal g.bg_site b.b_site)
      (Report.bug_groups report)
  in
  let candidates = List.filter (of_bug b) findings in
  let image =
    List.fold_left
      (fun acc (f : Report.finding) ->
        match f.verdict with
        | Some (Post.Bug { image_index; _ }) ->
            Some (Option.fold ~none:image_index ~some:(min image_index) acc)
        | _ -> acc)
      None candidates
  in
  (group, image, List.length candidates)

let validations () =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r with
      | { r_name = "validations_total"; r_labels = []; r_value = Counter n } -> n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* A (kind, site) of the session that formed no bug group — validated or
   whitelisted false positives — as an artifact bug first seen at its
   earliest finding.  clevel's candidates are all whitelisted, so without
   these its replay path would go unexercised. *)
let pseudo_bugs (s : Pmrace.Fuzzer.session) (recorded : Artifact.bug list) =
  List.stable_sort
    (fun (a : Report.finding) b -> Int.compare a.found_at b.found_at)
    (Report.findings s.report @ Report.sync_findings s.report)
  |> List.fold_left
       (fun acc (f : Report.finding) ->
         match Report.kind f with
         | `Invariant -> acc
         | _ when List.exists (fun b -> of_bug b f) (recorded @ acc) -> acc
         | k ->
             acc
             @ [
                 {
                   Artifact.b_kind = Report.kind_slug k;
                   b_site = Report.site f;
                   b_read_sites = [];
                   b_members = 0;
                   b_first_campaign = Some f.found_at;
                   b_image_index = None;
                 };
               ])
       []

let group = Alcotest.testable Report.pp_bug_group ( = )

(* Every recorded bug group of the workload's session, and every
   (kind, site) that formed none, replayed through [Replay.replay_bug]
   and through the reference: same verdict, group and image index, and
   the targeted replay validated exactly the bug's candidates. *)
let test_targeted_replay (target : Pmrace.Target.t) () =
  let s = session target in
  let art = Artifact.of_session ~target ~cfg:session_config s in
  let art = { art with a_bugs = art.a_bugs @ pseudo_bugs s art.a_bugs } in
  if art.a_bugs = [] then Alcotest.failf "%s: the session found no candidate" target.name;
  let enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled enabled) @@ fun () ->
  List.iteri
    (fun i (b : Artifact.bug) ->
      let label = Printf.sprintf "%s bug %d (%s at %s)" target.name i b.b_kind b.b_site in
      let spec_group, spec_image, candidates = reference_replay target art b in
      let before = validations () in
      match Pmrace.Replay.replay_bug ~target ~artifact:art ~bug:i with
      | Error e -> Alcotest.failf "%s: replay failed: %s" label e
      | Ok o ->
          Alcotest.(check int) (label ^ ": validations") candidates (validations () - before);
          Alcotest.(check bool) (label ^ ": reproduced") (spec_group <> None) o.r_reproduced;
          Alcotest.(check (option group)) (label ^ ": group") spec_group o.r_group;
          Alcotest.(check (option int)) (label ^ ": image index") spec_image o.r_image_index)
    art.a_bugs

let suite =
  List.map
    (fun (t : Pmrace.Target.t) ->
      Alcotest.test_case ("reused context ≡ fresh boots: " ^ t.name) `Slow (test_differential t))
    workloads
  @ [
      Alcotest.test_case "adversarial world: torn-planted" `Quick
        (test_adversarial Workloads.Tornstore.target);
      Alcotest.test_case "adversarial world: memcached-pmem" `Slow
        (test_adversarial Workloads.Memcached.target);
      Alcotest.test_case "memoised verdicts ≡ a fresh context per candidate" `Slow
        test_memo_equivalence;
    ]
  @ List.map
      (fun (t : Pmrace.Target.t) ->
        Alcotest.test_case ("targeted replay: " ^ t.name)
          (if t == Workloads.Memcached.target then `Slow else `Quick)
          (test_targeted_replay t))
      workloads
