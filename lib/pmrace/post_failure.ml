(* Post-failure validation (§4.4), over enumerated crash images.

   Each confirmed candidate carries a crash surface: the base durable
   image at the instant the durable side effect persisted, plus the
   in-flight cache lines that may or may not have drained (see
   [Pmem.Crash_images]).  Validation boots the context's recovery
   environment into an enumerated image (the base image plus its delta,
   re-booted in place), runs the target's recovery code, and checks
   whether the application-specific recovery fixed the inconsistency:

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
   is strong evidence of a bug, and is reported as such. *)

module Env = Runtime.Env
module Checkers = Runtime.Checkers

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

let m_validation = lazy (Obs.Metrics.histogram "validation_seconds")
let m_validations = lazy (Obs.Metrics.counter "validations_total")
let m_images_enumerated = lazy (Obs.Metrics.counter "crash_images_enumerated_total")
let m_images_validated = lazy (Obs.Metrics.counter "crash_images_validated_total")

type recovery_result = {
  env : Runtime.Env.t;
  overwritten : (int, unit) Hashtbl.t; (* PM words recovery stored to *)
  hung : bool;
}

(* The post-failure world, recycled: one environment per context, re-booted
   in place for every crash image ([Env.boot]) instead of a freshly
   allocated pool per image.  The [overwritten] table and its listener are
   reused the same way.  The context holds its world weakly: a fuzz worker
   validates rarely on execution-bound targets, and a pinned pool-sized
   world would raise its heap peak by about twice its size.  During a
   validation burst the world survives between major collections; when the
   GC does reclaim it, the next recovery creates a fresh one, which boots
   to the same state. *)
type world = {
  w_env : Env.t;
  w_overwritten : (int, unit) Hashtbl.t;
  w_record : Env.event -> unit;
}

type ctx = {
  c_target : Target.t;
  c_whitelist : Whitelist.t;
  c_images : int;
  c_world : world Weak.t; (* created by the first recovery that finds it empty *)
}

let ctx ?(images = 1) ?whitelist target =
  let whitelist = match whitelist with Some w -> w | None -> Whitelist.empty () in
  { c_target = target; c_whitelist = whitelist; c_images = max 1 images; c_world = Weak.create 1 }

let world ctx image =
  match Weak.get ctx.c_world 0 with
  | Some w -> w
  | None ->
      let overwritten : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      let w =
        {
          w_env = Env.create ~capture_images:false ~pool_words:(Pmem.Pool.image_words image) ();
          w_overwritten = overwritten;
          w_record =
            (function
            | Env.Ev_store { addr; _ } | Env.Ev_movnt { addr; _ } ->
                Hashtbl.replace overwritten addr ()
            | Env.Ev_load _ | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ());
        }
      in
      Weak.set ctx.c_world 0 (Some w);
      w

(* Run the target's recovery on a crash image (plus [delta]) in the
   context's world, recording every PM word the recovery code overwrites.  Extra [listeners] (e.g. a trace recorder for
   the recovery-path lint) are attached before recovery starts. *)
let run_recovery ?(listeners = []) ?delta ctx image =
  let w = world ctx image in
  let env = w.w_env in
  Env.boot ?delta env image;
  Hashtbl.clear w.w_overwritten;
  let target = ctx.c_target in
  target.annotate env;
  List.iter (fun l -> l env) listeners;
  Env.add_listener env w.w_record;
  let hang = ref false in
  (try target.recover env with
  | Runtime.Mem.Stuck _ -> hang := true
  | Sched.Scheduler.Killed -> hang := true);
  { env; overwritten = w.w_overwritten; hung = !hang }

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

(* Whether one recovery run fixed the candidate on this image. *)
let fixed_by cand delta (r : recovery_result) =
  match cand with
  | Candidate.Inconsistency inc ->
      inc.Checkers.eff_words <> []
      && List.for_all (fun w -> Hashtbl.mem r.overwritten w) inc.Checkers.eff_words
  | Candidate.Ordering { eff_words; _ } ->
      (* Words the crash persisted need no rewrite; recovery must cover
         the rest. *)
      let remaining = List.filter (fun w -> not (in_delta w delta)) eff_words in
      remaining <> [] && List.for_all (fun w -> Hashtbl.mem r.overwritten w) remaining
  | Candidate.Sync ev ->
      Int64.equal (Pmem.Pool.peek r.env.Env.pool ev.Checkers.sy_addr)
        ev.Checkers.var.Checkers.sv_init

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
                  let r = run_recovery ~delta ctx (Pmem.Crash_images.base st) in
                  if r.hung then Bug { recovery_hang = true; image_index = idx }
                  else if fixed_by cand delta r then go rest (budget - 1)
                  else Bug { recovery_hang = false; image_index = idx }
                end
        in
        go (Pmem.Crash_images.to_seq st) ctx.c_images
