(* The reused post-failure recovery context against its specification.

   Validation boots one recovery environment per context in place
   ([Runtime.Env.boot]) instead of allocating a fresh [Runtime.Env.of_image]
   per crash image.  For every registered workload, a short seeded session
   at --crash-images 4 supplies the candidates; each is validated through
   one reused context, and every enumerated image is recovered both in that
   context and in a fresh [of_image] boot.  Verdicts, image indices,
   overwritten-word sets and post-recovery pools must agree.  The
   adversarial case leaves the recovery environment dirty in every layer
   between recoveries. *)

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

(* Every word's value, durable value and metadata, plus the counters. *)
let pool_state p =
  let img = Pool.crash_image p in
  ( List.init (Pool.size p) (fun w ->
        (Pool.peek p w, Pool.image_word img w, Pool.is_dirty p w, Pool.is_pending p w)),
    Pool.stats p )

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

let session target =
  Pmrace.Fuzzer.run target
    (Pmrace.Fuzzer.Config.make ~max_campaigns:30 ~crash_images:budget ~master_seed:5 ())

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
  Env.install_bound env [| (fun _ -> incr leaked) |];
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
