(** Execution environment: one per fuzz campaign.

    Binds the PM pool, the checkers, the volatile DRAM store, the shadow
    taint memory, the interleaving policy (before/after hooks invoked at
    every instrumented operation) and the event listeners feeding the
    coverage metrics. *)

type point_kind = P_load | P_store | P_movnt | P_clwb | P_fence | P_cas

type point = { kind : point_kind; instr : Instr.t; addr : int }
(** A preemption point: what is about to execute (or just executed).
    [addr] is [-1] for fences. *)

type event =
  | Ev_load of { instr : Instr.t; tid : int; addr : int; dirty : bool }
  | Ev_store of { instr : Instr.t; tid : int; addr : int }
  | Ev_movnt of { instr : Instr.t; tid : int; addr : int }
  | Ev_clwb of { instr : Instr.t; tid : int; addr : int; dirty_words : int }
      (** [dirty_words] is the number of dirty words in the flushed line
          {e before} the flush — 0 means the flush was redundant *)
  | Ev_fence of { instr : Instr.t; tid : int; persisted : int list }
  | Ev_branch of { instr : Instr.t; tid : int }

type t = {
  pool : Pmem.Pool.t;
  checkers : Checkers.t;
  dram : Dram.t;
  mem_taint : Taint.t array;
      (** shadow taint, one label set per pool word ([Taint.empty] =
          untainted); write it through {!set_mem_taint} *)
  mutable tainted : int array;
  mutable tainted_len : int;
  on_stack : Bytes.t;
      (** the words tainted since the last clear, each once: what
          {!reset}, {!reset_checkers} and {!boot} untaint *)
  mutable policy : policy;
  mutable listeners : (event -> unit) list;
  mutable bound : (event -> unit) array;
      (** pre-bound listeners: installed once per worker, dispatched before
          the transient [listeners], survive {!reset} *)
  mutable evict_seed : int;
  mutable evict_rng : Sched.Rng.t;
  mutable evict_prob : float;
}

and ctx = { env : t; tid : int }
(** A thread's view of the environment. *)

and policy = { before : ctx -> point -> unit; after : ctx -> point -> unit }
(** Interleaving policy hooks; they may call {!Sched.Scheduler.yield}. *)

val null_policy : policy
(** No preemption — used for single-threaded init and recovery code. *)

val preempt_policy : policy
(** Yield before every instrumented operation (plain random scheduling). *)

val create :
  ?capture_images:bool ->
  ?evict_prob:float ->
  ?evict_seed:int ->
  ?eadr:bool ->
  pool_words:int ->
  unit ->
  t
(** Fresh environment with a zeroed pool.  [evict_prob] enables random
    silent cache-line eviction after stores; [eadr] puts the cache
    hierarchy in the persistent domain (§6.6). *)

val of_image : ?capture_images:bool -> Pmem.Pool.image -> t
(** The post-failure world: pool booted from a crash image; DRAM, taint and
    checker state start fresh.  Allocates a whole environment; it is the
    executable specification of {!boot}, which validation uses. *)

val boot : ?delta:(int * int64) list -> t -> Pmem.Pool.image -> unit
(** [boot t image] re-boots a reused environment in place into a state
    observationally identical to [of_image image] (with [delta] applied to
    the image, see {!Pmem.Pool.boot}): emptied checkers without image
    capture, cleared DRAM and taint, null policy, no transient or bound
    listeners, the eviction RNG reseeded from the default seed, eviction
    probability 0 and eADR off.  It allocates no pool. *)

val ctx : t -> tid:int -> ctx
val set_policy : t -> policy -> unit

val add_listener : t -> (event -> unit) -> unit
(** Attach a transient listener (cleared by {!reset}); for per-campaign or
    per-trace hooks. *)

val install_bound : t -> (event -> unit) array -> unit
(** Install the permanent listener array.  Bound listeners run on every
    event, before the transient list, and survive {!reset} — workers
    install their coverage-delta handlers once instead of rebuilding
    closure lists per campaign. *)

val listening : t -> bool
(** Whether a bound or transient listener is installed.  The instrumented
    operations build and {!emit} an event only when one is. *)

val emit : t -> event -> unit

val mem_taint : t -> int -> Taint.t
(** The shadow taint of a pool word: an array read, no hashing. *)

val set_mem_taint : t -> int -> Taint.t -> unit

val tainted_words : t -> int
(** How many words were tainted since the last clear: the cost of the
    next clear, which is O(tainted words), not O(pool). *)

val annotate_sync : t -> name:string -> addr:int -> len:int -> init:int64 -> unit

val reset_checkers : ?capture_images:bool -> t -> unit
(** Discard checker state accumulated so far (e.g. during pool
    initialisation) while keeping sync-variable annotations. *)

val reset : ?capture_images:bool -> t -> unit
(** Return a reused environment to its just-created state: checkers
    emptied in place ({!Checkers.reset}; {e without} sync annotations —
    re-annotate as for a fresh env), cleared DRAM and taint shadow, null
    policy, no transient listeners, and the eviction RNG reseeded from its
    original seed.  The pool and the
    pre-bound listener array are untouched: rewind the pool separately
    with {!Pmem.Pool.boot}.  This is the persistent-mode engine's
    per-campaign reset path. *)
