(* Persistent-mode execution engine (the throughput half of Figure 10).

   One engine per worker domain owns a reusable execution context that is
   *rebooted*, not recreated, between campaigns: every checkout is
   [Runtime.Env.boot] of the context to the checkpoint image — fresh
   checkers, cleared DRAM/taint, and the pool rewound by [Pmem.Pool.boot]
   in O(touched words), driven by the pool's journal, instead of an
   O(pool) image pass (let alone re-running the target's initialisation),
   with the worker's pre-bound listener array as the environment's
   listeners.  The run's eADR setting is then
   armed, and the target re-annotates, exactly as it would a fresh
   environment.

   Every target runs this way by default.  Without a shared checkpoint
   the engine builds its context in place: the target initialises the
   engine's own pool, which then becomes the checkpoint, so an engine
   that serves a single checkout (a replay, the pre-pass) costs the
   target's initialisation plus one image copy.  [use_checkpoint:false]
   keeps Figure 10's reference arm: every checkout builds that same
   context anew (a new engine per campaign) and goes through the same
   checkout tail.  Every campaign context is built here; [Campaign.run]
   has no other source.

   Determinism: the two modes are observationally identical — both
   initialise under the checkpoint's settings (no eADR),
   then boot the checkpoint and arm, listen and annotate the same way —
   so seeded sessions are bit-identical whichever mode runs them. *)

module Env = Runtime.Env

type mode = Persistent of { image : Pmem.Pool.image; env : Env.t } | Fresh

type t = {
  target : Target.t;
  capture : Runtime.Checkers.capture;
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
   checkpoint's settings: no eADR, no surface capture. *)
let init_env (target : Target.t) =
  let env = Env.create ~capture:Runtime.Checkers.none ~pool_words:target.pool_words () in
  target.init env;
  Pmem.Pool.quiesce env.pool;
  env

(* Initialise a pool once and capture the checkpoint the fast path reuses. *)
let checkpoint target = Pmem.Pool.checkpoint (init_env target).pool

(* The context of an engine without a shared checkpoint, which the fresh
   arm builds at every checkout: the initialised pool is checkpointed in
   place, and so already booted from its checkpoint. *)
let init_context target =
  let env = init_env target in
  (env, Pmem.Pool.checkpoint env.pool)

(* How many words each checkout's boot had to undo — the direct measure
   of the O(touched) claim (compare with the pool size). *)
let m_reset_touched =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 8.; 32.; 128.; 512.; 2048.; 8192.; 32768. |]
       "engine_reset_touched_words")

let create ?(capture = Runtime.Checkers.all) ?(eadr = false) ?(bound = [||])
    ?checkpoint:shared ?(use_checkpoint = true) (target : Target.t) =
  let mode =
    if not use_checkpoint then Fresh
    else
      let env, image =
        match shared with
        | Some image ->
            let env = Env.create ~pool_words:target.pool_words () in
            (* The O(pool) first boot, once per worker: every checkout
               after it is a rewind. *)
            Pmem.Pool.boot env.pool image;
            (env, image)
        | None -> init_context target
      in
      Persistent { image; env }
  in
  {
    target;
    capture;
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

(* The one checkout tail of both modes.  The boot installs the bound
   listeners only after initialisation, so they never see init events. *)
let boot t env image =
  let touched = Pmem.Pool.touched_words env.Env.pool in
  t.last_reset_touched <- touched;
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe (Lazy.force m_reset_touched) (float_of_int touched);
  Env.boot ~capture:t.capture ~listeners:t.bound env image;
  (* [Env.boot] turns eADR off. *)
  Pmem.Pool.set_eadr env.pool t.eadr;
  t.target.annotate env;
  env

let checkout t =
  t.checkouts <- t.checkouts + 1;
  match t.mode with
  | Persistent { image; env } -> boot t env image
  | Fresh ->
      let env, image = init_context t.target in
      boot t env image

let persistent t = match t.mode with Persistent _ -> true | Fresh -> false
let checkouts t = t.checkouts
let last_reset_touched t = t.last_reset_touched
