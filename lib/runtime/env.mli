(** Execution environment: one per fuzz campaign.

    Binds the PM pool, the checkers, the volatile DRAM store, the shadow
    taint memory, the interleaving policy (before/after hooks invoked at
    every instrumented operation) and the event listeners feeding the
    coverage metrics. *)

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
          {!boot} untaints *)
  mutable policy : policy;
  mutable listeners : (event -> unit) array;
      (** every listener, in the order it runs: the array {!boot} was
          given, then each {!add_listener} in turn.  Never written in
          place, so the array passed to {!boot} is left as it was. *)
  mutable evict_rng : Sched.Rng.t;
  mutable evict_prob : float;
}

and ctx = { env : t; tid : int }
(** A thread's view of the environment. *)

and policy = { before : ctx -> Footprint.t -> unit; after : ctx -> Footprint.t -> unit }
(** Interleaving policy hooks; they may call {!Sched.Scheduler.yield}.
    Both hooks of one operation receive the same {!Footprint.t}: what
    kind of access it is and which word (or, for a flush, which line) it
    touches. *)

val null_policy : policy
(** No preemption — used for single-threaded init and recovery code. *)

val preempt_policy : policy
(** Yield before every instrumented operation (plain random scheduling). *)

val create : ?capture_images:bool -> pool_words:int -> unit -> t
(** Fresh environment with a zeroed pool, eviction off and eADR off.
    [capture_images] (default true) makes the checkers capture crash
    images.  Arm a run's settings on the record itself: set [evict_prob]
    (and [evict_rng] for another stream) for random silent cache-line
    eviction after stores, {!Pmem.Pool.set_eadr} on [pool] to put the
    cache hierarchy in the persistent domain (§6.6). *)

val of_image : ?capture_images:bool -> Pmem.Pool.image -> t
(** The post-failure world: pool booted from a crash image; DRAM, taint and
    checker state start fresh.  Allocates a whole environment; it is the
    executable specification of {!boot}, which engine checkouts and
    validation use. *)

val boot :
  ?delta:(int * int64) list ->
  ?capture_images:bool ->
  ?listeners:(event -> unit) array ->
  t ->
  Pmem.Pool.image ->
  unit
(** [boot t image] re-boots a reused environment in place into a state
    observationally identical to [of_image ?capture_images image] (with
    [delta] applied to the image, see {!Pmem.Pool.boot}): emptied checkers
    ({e without} sync annotations — re-annotate as for a fresh
    environment) that capture crash images only if [capture_images]
    (default false), cleared DRAM and taint, null policy, exactly the
    [listeners] given (default none; an engine passes the worker's array,
    built once instead of per campaign), the eviction RNG reseeded from
    the default seed, eviction probability 0 and eADR off.  It allocates
    no pool.

    It is the environment's one rewind: an engine checkout boots its
    checkpoint (a journal rewind, O(touched words)), post-failure
    validation boots each crash image. *)

val ctx : t -> tid:int -> ctx
val set_policy : t -> policy -> unit

val add_listener : t -> (event -> unit) -> unit
(** Append a listener, which runs after those already attached, until
    the next {!boot}; for per-campaign or per-trace hooks. *)

val listening : t -> bool
(** Whether any listener is attached.  The instrumented operations build
    and {!emit} an event only when one is. *)

val emit : t -> event -> unit
(** Run every listener on the event, in order. *)

val mem_taint : t -> int -> Taint.t
(** The shadow taint of a pool word: an array read, no hashing. *)

val set_mem_taint : t -> int -> Taint.t -> unit

val tainted_words : t -> int
(** How many words were tainted since the last clear: the cost of the
    next clear, which is O(tainted words), not O(pool). *)

val annotate_sync : t -> name:string -> addr:int -> len:int -> init:int64 -> unit
