(** Post-failure validation (§4.4), over enumerated crash images.

    Validation boots the crash state captured at each candidate, runs the
    target's recovery code, and decides whether the application-specific
    recovery fixed it.  The durable state at a failure is underdetermined,
    so validation enumerates the reachable images ({!Pmem.Crash_images})
    up to a budget: a candidate is a {e bug} as soon as any enumerated
    image survives recovery, and the verdict records which image index
    reproduced so [pmrace replay] can rebuild that exact image.  Budget 1
    validates only the base image — the historical behaviour. *)

type verdict =
  | Validated_fp  (** every enumerated image was fixed by immediate recovery *)
  | Whitelisted_fp  (** covered by the benign-read whitelist *)
  | Bug of { recovery_hang : bool; image_index : int }
      (** not fixed on enumerated image [image_index] ([0] is the base
          crash image); [recovery_hang] when the recovery itself got
          stuck *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_slug : verdict -> string
(** ["validated-fp" | "whitelisted-fp" | "bug" | "bug-recovery-hang"]: the
    verdict as event streams and artifacts spell it. *)

(** The three candidate kinds post-failure validation decides on. *)
module Candidate : sig
  type t =
    | Inconsistency of Runtime.Checkers.inconsistency
        (** false positive iff every side-effect word is overwritten
            during recovery (or the reading site is whitelisted) *)
    | Ordering of { crash : Pmem.Crash_images.state option; eff_words : int list }
        (** a mined ordering-invariant violation: false positive iff
            recovery rewrites every source word the crash left
            unpersisted *)
    | Sync of Runtime.Checkers.sync_event
        (** false positive iff recovery restores the annotated variable
            to its expected initial value *)
end

type ctx
(** Validation context: target, whitelist, image budget, the reused
    recovery environment every recovery on it boots into, and a
    single-slot memo of what recovery left on each image of the last
    crash surface validated. *)

val ctx : ?images:int -> ?whitelist:Whitelist.t -> Target.t -> ctx
(** [images] is the crash-image budget — how many enumerated images are
    recovered at most per candidate (default [1], clamped to [>= 1]);
    [whitelist] defaults to empty.  Create one per worker domain. *)

type recovery_result = {
  env : Runtime.Env.t;  (** the post-recovery environment *)
  overwritten : int array;
      (** PM words recovery stored to, each once, in first-store order *)
  hung : bool;  (** recovery got stuck (spin lock, kill) *)
}
(** [env] belongs to the context's recovery world: it is valid until the
    next recovery on the same context. *)

val run_recovery :
  ?listeners:(Runtime.Env.t -> unit) list ->
  ?delta:Pmem.Crash_images.delta ->
  ctx ->
  Pmem.Pool.image ->
  recovery_result
(** Run the context target's recovery on one crash image: [image] with
    [delta] (default empty) applied.  The context's recovery environment
    is re-booted in place ({!Runtime.Env.boot}) — observationally a fresh
    {!Runtime.Env.of_image}, without allocating a pool.  The context holds
    it weakly: the first recovery creates it, and so does the first one
    after the GC reclaimed it from an idle context.  [listeners] (e.g.
    {!Analysis.Analyzer.attach} in recovery phase) are applied to the
    booted environment before recovery starts.  All
    images recovered on one context must have the same size
    ([Invalid_argument] otherwise), and a context is not safe to share
    between domains. *)

val validate : ctx -> Candidate.t -> verdict
(** Validate one candidate: enumerate its crash surface in deterministic
    order, run recovery on up to [images] of them, and report [Bug] with
    the first image index that survives (or hangs) recovery.  Images in
    which the crash itself repaired the candidate (e.g. the inconsistency
    source drained) are skipped without spending budget.  Image 0 — the
    durable image at the capture — is always validated first, so budget 1
    is bit-identical to historical single-image validation.

    Candidates captured at one pool instant share their surface
    (physically), and recovery on one image is deterministic: the context
    runs recovery once per (surface, image) and answers repeats from its
    memo, which keeps the hang flag and the overwritten words with their
    final values — all a verdict reads. *)
