(* Persistent-mode execution engine (the throughput half of Figure 10).

   One engine per worker domain owns a reusable execution context that is
   *reset*, not recreated, between campaigns:

   - the pool is rewound with [Pmem.Pool.boot] to the checkpoint image —
     O(touched words), driven by the pool's journal, instead of an O(pool)
     image pass (let alone re-running the target's initialisation) — and
     eADR re-armed, which [boot] turns off;
   - the environment is rewound with [Runtime.Env.reset] — fresh checkers,
     cleared DRAM/taint, reseeded eviction RNG — while the pre-bound
     listener array installed once at engine creation survives;
   - the target re-annotates, exactly as it would a fresh environment.

   Every target runs this way by default.  Without a shared checkpoint
   the engine builds its context in place: the target initialises the
   engine's own pool, which then becomes the checkpoint, so an engine
   that serves a single checkout (a replay, the pre-pass) costs the
   target's initialisation plus one image copy.  [use_checkpoint:false] keeps
   Figure 10's reference arm: a fresh environment per checkout, the
   target's initialisation re-run, behind the same [checkout] API.  Every
   campaign context is built here; [Campaign.run] has no other source.

   Determinism: the two modes are observationally identical — both
   initialise under the checkpoint's settings (no eviction, no eADR), then
   give the same images, fresh checkers, reseeded eviction RNG and
   annotation pass — so seeded sessions are bit-identical whichever mode
   runs them. *)

module Env = Runtime.Env

type mode = Persistent of { image : Pmem.Pool.image; env : Env.t } | Fresh

type t = {
  target : Target.t;
  capture_images : bool;
  evict_prob : float;
  eadr : bool;
  mode : mode;
  bound : (Env.event -> unit) array;
  mutable checkouts : int;
  mutable last_reset_touched : int;
  mutable por : Por.t option;
      (* lazily-created POR harness, reused (reset) across campaigns like
         the execution context itself *)
}

(* A freshly initialised, quiesced environment, built under the
   checkpoint's settings: no eviction, no eADR, no image capture.  Both
   modes start every campaign from this state, so neither the eviction
   RNG nor the pool counters depend on the mode. *)
let init_env (target : Target.t) =
  let env = Env.create ~capture_images:false ~pool_words:target.pool_words () in
  target.init env;
  Pmem.Pool.quiesce env.pool;
  env

(* Initialise a pool once and capture the checkpoint the fast path reuses. *)
let checkpoint target = Pmem.Pool.checkpoint (init_env target).pool

(* Hand a freshly initialised or booted context the engine's run
   settings ([Pmem.Pool.boot] turns eADR off). *)
let arm env ~evict_prob ~eadr =
  Pmem.Pool.set_eadr env.Env.pool eadr;
  env.Env.evict_prob <- evict_prob

(* How many words each persistent-mode reset had to undo — the direct
   measure of the O(touched) claim (compare with the pool size). *)
let m_reset_touched =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 8.; 32.; 128.; 512.; 2048.; 8192.; 32768. |]
       "engine_reset_touched_words")

let create ?(capture_images = true) ?(evict_prob = 0.) ?(eadr = false) ?(bound = [||])
    ?checkpoint:shared ?(use_checkpoint = true) (target : Target.t) =
  let mode =
    if use_checkpoint then begin
      let env, image =
        match shared with
        | Some image ->
            let env = Env.create ~capture_images ~pool_words:target.pool_words () in
            (* The O(pool) first boot, once per worker: every checkout
               after it is a rewind. *)
            Pmem.Pool.boot env.pool image;
            (env, image)
        | None ->
            (* In place: the initialised pool is checkpointed, and so
               already booted from its checkpoint. *)
            let env = init_env target in
            (env, Pmem.Pool.checkpoint env.pool)
      in
      Env.install_bound env bound;
      Persistent { image; env }
    end
    else Fresh
  in
  {
    target;
    capture_images;
    evict_prob;
    eadr;
    mode;
    bound;
    checkouts = 0;
    last_reset_touched = 0;
    por = None;
  }

(* A reset POR harness sized for at least [nthreads] fibers and the
   target's pool (so the flat Foata-layer tables never grow or collide
   on real footprints).  Grown (by replacement) when a seed spawns more
   threads than any before it; reset is O(fibers) — the layer tables
   reset by generation bump, exactly like the pool's pending index. *)
let por_harness t ~nthreads =
  match t.por with
  | Some h when Por.capacity h >= nthreads ->
      Por.reset h;
      h
  | _ ->
      let h = Por.create ~pool_words:t.target.Target.pool_words ~nthreads () in
      t.por <- Some h;
      h

let checkout t =
  t.checkouts <- t.checkouts + 1;
  match t.mode with
  | Persistent { image; env } ->
      let touched = Pmem.Pool.touched_words env.pool in
      t.last_reset_touched <- touched;
      if Obs.Metrics.enabled () then
        Obs.Metrics.observe (Lazy.force m_reset_touched) (float_of_int touched);
      Pmem.Pool.boot env.pool image;
      arm env ~evict_prob:t.evict_prob ~eadr:t.eadr;
      Env.reset ~capture_images:t.capture_images env;
      t.target.annotate env;
      env
  | Fresh ->
      let env = init_env t.target in
      arm env ~evict_prob:t.evict_prob ~eadr:t.eadr;
      Env.reset ~capture_images:t.capture_images env;
      t.target.annotate env;
      (* Installed only after initialisation: bound listeners must not see
         init events, matching persistent mode, where they never do. *)
      Env.install_bound env t.bound;
      env

let persistent t = match t.mode with Persistent _ -> true | Fresh -> false
let checkouts t = t.checkouts
let last_reset_touched t = t.last_reset_touched
