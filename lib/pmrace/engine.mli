(** Persistent-mode execution engine (the throughput half of Figure 10).

    One engine per worker domain owns a reusable execution context that is
    {e rebooted}, not recreated, between campaigns: every checkout is
    {!Runtime.Env.boot} of the context to the checkpoint image (the pool
    rewinds in O(touched words), driven by the pool's touched-word
    journal) with the worker's pre-bound listener array as the
    environment's listeners; then the run settings are armed and the
    target re-annotates.  Pre-bound listeners are built once per worker
    instead of being rebuilt per campaign.

    Every target runs in persistent mode by default.  Without a shared
    checkpoint the engine builds its context in place (one environment, the
    target's initialisation, the checkpoint taken on that same pool), so a
    single-checkout engine costs a fresh set-up plus one image copy.
    [use_checkpoint:false] is Figure 10's reference arm: every checkout
    builds that same context anew (a new engine per campaign, the target's
    initialisation re-run) and then takes the same checkout tail.  The
    engine is the only way to build a campaign's context: {!Campaign.run}
    requires one.

    The two modes are observationally identical (initialisation under the
    checkpoint's settings — no eviction, no eADR — then the same boot,
    arming and annotation pass), so seeded sessions stay bit-identical in
    either mode. *)

type t

val checkpoint : Target.t -> Pmem.Pool.image
(** Initialise a pool once (no eviction, no eADR) and return its
    checkpoint ({!Pmem.Pool.checkpoint}): the image every campaign of a
    session starts from, shared read-only by its workers. *)

val create :
  ?capture_images:bool ->
  ?evict_prob:float ->
  ?eadr:bool ->
  ?bound:(Runtime.Env.event -> unit) array ->
  ?checkpoint:Pmem.Pool.image ->
  ?use_checkpoint:bool ->
  Target.t ->
  t
(** Build a worker's engine.  [use_checkpoint] defaults to true: the
    engine runs in persistent mode — the context is created once and
    reused.  Given a [checkpoint] (e.g. shared across workers), the
    context's pool boots from it, once in O(pool); otherwise the target
    initialises the context's own pool (no eviction, no eADR) and that
    pool is checkpointed in place.  Every checkout boots the checkpoint
    and then applies [evict_prob] and [eadr].  [use_checkpoint:false]
    selects fresh mode.  [bound] is the worker's pre-bound listener
    array: every checkout's boot starts the environment's listeners from
    it (after initialisation, so it never observes target-initialisation
    events) and leaves the array itself unchanged. *)

val checkout : t -> Runtime.Env.t
(** An environment ready for one campaign: freshly initialised target
    state, fresh checkers, annotations applied, exactly the bound
    listeners.  Persistent mode returns the engine's reused
    context (rebooted in O(touched words)); fresh mode builds a new
    context first.  The environment is only valid until the next
    [checkout]. *)

val por_harness : t -> nthreads:int -> Por.t
(** The engine's reusable POR harness, reset and ready for one campaign
    with at most [nthreads] fibers (created on first use, grown when a
    seed spawns more threads than any before). *)

val persistent : t -> bool
val checkouts : t -> int
(** Total checkouts served. *)

val last_reset_touched : t -> int
(** Words the most recent checkout's boot had to undo (0 in fresh mode,
    whose new context is already booted from its checkpoint) — the
    observable behind the O(touched) acceptance test.  Also recorded in
    the [engine_reset_touched_words] histogram. *)
