(* Post-failure validation (§4.4), over enumerated crash images.

   Each confirmed candidate carries a crash surface: the durable image
   at the instant the durable side effect persisted, plus the in-flight
   cache lines that may or may not have drained (see
   [Pmem.Crash_images]).  Validation boots the context's recovery
   environment into an enumerated image (the surface's shared base plus
   the image's merged delta, re-booted in place), runs the target's
   recovery code, and checks whether the application-specific recovery
   fixed the inconsistency:

   - PM Inter-/Intra-thread Inconsistency: fixed iff every recorded
     side-effect word is overwritten during recovery.
   - Ordering-invariant violation: fixed iff recovery rewrites every
     source word the crash left unpersisted.
   - PM Synchronization Inconsistency: fixed iff the annotated variable
     is restored to its expected initial value.

   A candidate is a [Bug] as soon as *any* enumerated image survives its
   recovery — the verdict records which image index reproduced, so
   `pmrace replay` can rebuild that exact image.  The image budget bounds
   how many recoveries actually run; budget 1 validates only image 0
   (the base image) and is bit-identical to the historical single-image
   behaviour.

   Images in which the crash itself repaired the candidate are skipped
   without spending budget: for an inconsistency, an image where the
   source word drained is consistent by construction (recovery rightly
   does nothing there, and counting it as a bug would be spurious);
   likewise an ordering violation whose unpersisted source words all
   drained.

   A recovery that itself hangs (a spin lock stuck on a persisted lock)
   is strong evidence of a bug, and is reported as such.

   Candidates confirmed at one pool instant share one crash surface
   (physically: [Crash_images.capture] returns the same state), and
   recovery on one image is deterministic.  So the context remembers, for
   the last surface it validated, what recovery left on each image it
   ran: the hang flag and the words it overwrote with their final
   values.  That is all a verdict reads, so every candidate — memoised or
   not — is decided by the same [fixed_by] over the same record. *)

module Env = Runtime.Env
module Checkers = Runtime.Checkers
module CI = Pmem.Crash_images

type verdict =
  | Validated_fp (* every enumerated image was fixed by immediate recovery *)
  | Whitelisted_fp (* covered by the benign-read whitelist *)
  | Bug of { recovery_hang : bool; image_index : int }

let pp_verdict ppf = function
  | Validated_fp -> Fmt.string ppf "validated-FP"
  | Whitelisted_fp -> Fmt.string ppf "whitelisted-FP"
  | Bug { recovery_hang = true; image_index = 0 } -> Fmt.string ppf "BUG (recovery hangs)"
  | Bug { recovery_hang = true; image_index = i } ->
      Fmt.pf ppf "BUG (recovery hangs, crash image #%d)" i
  | Bug { recovery_hang = false; image_index = 0 } -> Fmt.string ppf "BUG"
  | Bug { recovery_hang = false; image_index = i } -> Fmt.pf ppf "BUG (crash image #%d)" i

let verdict_slug = function
  | Validated_fp -> "validated-fp"
  | Whitelisted_fp -> "whitelisted-fp"
  | Bug { recovery_hang = true; _ } -> "bug-recovery-hang"
  | Bug { recovery_hang = false; _ } -> "bug"

let m_validation = lazy (Obs.Metrics.histogram "validation_seconds")
let m_validations = lazy (Obs.Metrics.counter "validations_total")
let m_images_enumerated = lazy (Obs.Metrics.counter "crash_images_enumerated_total")
let m_images_validated = lazy (Obs.Metrics.counter "crash_images_validated_total")

type recovery_result = {
  env : Runtime.Env.t;
  overwritten : int array; (* PM words recovery stored to, first store first *)
  hung : bool;
}

(* The post-failure world, recycled: one environment per context, re-booted
   in place for every crash image ([Env.boot]) instead of a freshly
   allocated pool per image.  The overwritten-word log and its listener
   are reused the same way: a word-indexed stamp array dedupes the log,
   so starting a recovery is a generation bump.  The context holds its
   world weakly: a fuzz worker validates rarely on execution-bound
   targets, and a pinned pool-sized world would raise its heap peak by
   about twice its size.  During a validation burst the world survives
   between major collections; when the GC does reclaim it, the next
   recovery creates a fresh one, which boots to the same state. *)
type world = {
  w_env : Env.t;
  w_stamp : int array; (* [w_gen] iff the word is in the log *)
  mutable w_gen : int;
  mutable w_log : int array; (* overwritten words, first store first *)
  mutable w_len : int;
  w_record : Env.event -> unit;
}

(* What one recovery left on one image, as much as a verdict reads. *)
type outcome = {
  o_hung : bool;
  o_words : int array; (* PM words recovery overwrote *)
  o_values : int64 array; (* their values after recovery *)
}

(* Single-slot memo: the outcomes per image index of the last surface
   validated, keyed by physical identity.  Holding the surface keeps its
   address from being reused, and costs O(images × overwritten words). *)
type memo = { mutable m_surface : CI.state option; mutable m_outcomes : (int * outcome) list }

type ctx = {
  c_target : Target.t;
  c_whitelist : Whitelist.t;
  c_images : int;
  c_world : world Weak.t; (* created by the first recovery that finds it empty *)
  c_memo : memo;
}

let ctx ?(images = 1) ?whitelist target =
  let whitelist = match whitelist with Some w -> w | None -> Whitelist.empty () in
  {
    c_target = target;
    c_whitelist = whitelist;
    c_images = max 1 images;
    c_world = Weak.create 1;
    c_memo = { m_surface = None; m_outcomes = [] };
  }

let log_word w addr =
  if w.w_stamp.(addr) <> w.w_gen then begin
    w.w_stamp.(addr) <- w.w_gen;
    if w.w_len = Array.length w.w_log then begin
      let bigger = Array.make (2 * w.w_len) 0 in
      Array.blit w.w_log 0 bigger 0 w.w_len;
      w.w_log <- bigger
    end;
    w.w_log.(w.w_len) <- addr;
    w.w_len <- w.w_len + 1
  end

let world ctx image =
  match Weak.get ctx.c_world 0 with
  | Some w -> w
  | None ->
      let words = Pmem.Pool.image_words image in
      let rec w =
        {
          w_env = Env.create ~capture_images:false ~pool_words:words ();
          w_stamp = Array.make words 0;
          w_gen = 1;
          w_log = Array.make 64 0;
          w_len = 0;
          w_record =
            (function
            | Env.Ev_store { addr; _ } | Env.Ev_movnt { addr; _ } -> log_word w addr
            | Env.Ev_load _ | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ());
        }
      in
      Weak.set ctx.c_world 0 (Some w);
      w

(* Run the target's recovery on a crash image (plus [delta]) in the
   context's world, recording every PM word the recovery code overwrites.
   Extra [listeners] (e.g. the analyzer's recovery-path lint)
   are attached before recovery starts. *)
let run_recovery ?(listeners = []) ?delta ctx image =
  let w = world ctx image in
  let env = w.w_env in
  Env.boot ?delta env image;
  w.w_gen <- w.w_gen + 1;
  w.w_len <- 0;
  let target = ctx.c_target in
  target.annotate env;
  List.iter (fun l -> l env) listeners;
  Env.add_listener env w.w_record;
  let hang = ref false in
  (try target.recover env with
  | Runtime.Mem.Stuck _ -> hang := true
  | Sched.Scheduler.Killed -> hang := true);
  { env; overwritten = Array.sub w.w_log 0 w.w_len; hung = !hang }

module Candidate = struct
  type t =
    | Inconsistency of Checkers.inconsistency
    | Ordering of { crash : Pmem.Crash_images.state option; eff_words : int list }
    | Sync of Checkers.sync_event
end

let crash_of = function
  | Candidate.Inconsistency inc -> inc.Checkers.crash
  | Candidate.Ordering { crash; _ } -> crash
  | Candidate.Sync ev -> ev.Checkers.sy_crash

let in_delta w delta = List.exists (fun (w', _) -> w' = w) delta

(* Index of [w] in the outcome's overwritten words, or -1.  A verdict
   looks up one or two words, so a scan beats sorting every outcome. *)
let find_word o w =
  let rec go i = if i < 0 || o.o_words.(i) = w then i else go (i - 1) in
  go (Array.length o.o_words - 1)

let overwritten o w = find_word o w >= 0

let outcome_of (r : recovery_result) =
  {
    o_hung = r.hung;
    o_words = r.overwritten;
    o_values = Array.map (Pmem.Pool.peek r.env.Env.pool) r.overwritten;
  }

(* Recovery's outcome on image [idx] (drain delta [delta]) of [st]: from
   the memo when this surface's image was recovered before, otherwise by
   booting the shared base with the merged delta — a journal rewind for
   every image of a base after its first. *)
let recover ctx st idx delta =
  let m = ctx.c_memo in
  (match m.m_surface with
  | Some s when s == st -> ()
  | _ ->
      m.m_surface <- Some st;
      m.m_outcomes <- []);
  match List.assoc_opt idx m.m_outcomes with
  | Some o -> o
  | None ->
      let o = outcome_of (run_recovery ~delta:(CI.boot_delta st delta) ctx (CI.base st)) in
      m.m_outcomes <- (idx, o) :: m.m_outcomes;
      o

(* Images in which the crash already repaired the candidate: recovery has
   nothing to fix there, so running it would misreport a bug. *)
let skip_image cand delta =
  match cand with
  | Candidate.Inconsistency inc ->
      (* The source word drained with this crash: the read saw data that
         did reach PM, so this world holds no inconsistency. *)
      in_delta inc.Checkers.source.Runtime.Candidates.addr delta
  | Candidate.Ordering { eff_words; _ } ->
      eff_words <> [] && List.for_all (fun w -> in_delta w delta) eff_words
  | Candidate.Sync _ -> false

(* Whether recovery fixed the candidate on image [delta] of [st]. *)
let fixed_by cand st delta o =
  match cand with
  | Candidate.Inconsistency inc ->
      inc.Checkers.eff_words <> [] && List.for_all (overwritten o) inc.Checkers.eff_words
  | Candidate.Ordering { eff_words; _ } ->
      (* Words the crash persisted need no rewrite; recovery must cover
         the rest. *)
      let remaining = List.filter (fun w -> not (in_delta w delta)) eff_words in
      remaining <> [] && List.for_all (overwritten o) remaining
  | Candidate.Sync ev ->
      (* The post-recovery value: recovery's last store to the word, or
         the image's own value when recovery left it alone. *)
      let w = ev.Checkers.sy_addr in
      let i = find_word o w in
      let v = if i >= 0 then o.o_values.(i) else CI.image_word st delta w in
      Int64.equal v ev.Checkers.var.Checkers.sv_init

let validate ctx cand =
  Obs.Metrics.incr (Lazy.force m_validations);
  Obs.Metrics.time (Lazy.force m_validation) @@ fun () ->
  let whitelisted =
    match cand with
    | Candidate.Inconsistency inc -> Whitelist.covers ctx.c_whitelist inc
    | Candidate.Ordering _ | Candidate.Sync _ -> false
  in
  if whitelisted then Whitelisted_fp
  else
    match crash_of cand with
    | None -> Bug { recovery_hang = false; image_index = 0 } (* no image: cannot validate *)
    | Some st ->
        let rec go seq budget =
          if budget = 0 then Validated_fp
          else
            match seq () with
            | Seq.Nil -> Validated_fp
            | Seq.Cons ((idx, delta), rest) ->
                Obs.Metrics.incr (Lazy.force m_images_enumerated);
                if skip_image cand delta then go rest budget
                else begin
                  Obs.Metrics.incr (Lazy.force m_images_validated);
                  let o = recover ctx st idx delta in
                  if o.o_hung then Bug { recovery_hang = true; image_index = idx }
                  else if fixed_by cand st delta o then go rest (budget - 1)
                  else Bug { recovery_hang = false; image_index = idx }
                end
        in
        go (CI.to_seq st) ctx.c_images
