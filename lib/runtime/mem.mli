(** The instrumented memory operations — PMRace's hooked functions.

    Every operation runs the interleaving policy's [before] hook (where the
    PM-aware scheduler injects [cond_wait]), performs the access with
    checker bookkeeping, notifies coverage listeners, and runs the [after]
    hook (where [cond_signal] lives).  Both hooks receive the operation's
    {!Footprint.t}: [load w], [store w] for {!store} and {!movnt}, [rw w]
    for {!cas} (whether or not it succeeds), [flush] of the line for
    {!clwb}, and [fence] for {!sfence}.  Addresses are tainted {!Tval.t}
    values so that stores whose address derives from non-persisted data are
    detected as layout inconsistencies. *)

exception Stuck of string
(** Raised by {!spin_lock} when it cannot make progress (e.g. an unreleased
    persistent lock encountered during recovery). *)

val load : Env.ctx -> instr:Instr.t -> Tval.t -> Tval.t
(** PM load.  If the word is dirty, an inconsistency candidate is recorded
    and its taint label is attached to the result. *)

val store : Env.ctx -> instr:Instr.t -> Tval.t -> Tval.t -> unit
(** Cached PM store: visible at once, durable only after flush + fence. *)

val movnt : Env.ctx -> instr:Instr.t -> Tval.t -> Tval.t -> unit
(** Non-temporal PM store: durable at the next fence, never PM-dirty. *)

val clwb : Env.ctx -> instr:Instr.t -> Tval.t -> unit
val sfence : Env.ctx -> instr:Instr.t -> unit

val persist : Env.ctx -> instr:Instr.t -> Tval.t -> unit
(** [clwb] followed by [sfence]. *)

val persist_range : Env.ctx -> instr:Instr.t -> Tval.t -> words:int -> unit
(** Flush every line of a range, then fence once. *)

val cas : ?nt:bool -> Env.ctx -> instr:Instr.t -> Tval.t -> expect:Tval.t -> value:Tval.t -> bool
(** Atomic compare-and-swap (a single preemption point).  [nt:true]
    publishes non-temporally — the new value is never PM-dirty and becomes
    durable at the next fence. *)

val branch : Env.ctx -> instr:Instr.t -> unit
(** Record a branch-coverage point. *)

val external_effect : Env.ctx -> instr:Instr.t -> Tval.t -> unit
(** Declare a durable side effect outside PM (disk write, socket). *)

val spin_lock : ?persist_lock:bool -> Env.ctx -> instr:Instr.t -> Tval.t -> unit
(** Acquire a PM spin lock (0 = free, 1 = held).  [persist_lock] flushes
    the lock word — the persistent-lock pattern behind PM Synchronization
    Inconsistency.  @raise Stuck after [100_000] failed attempts. *)

val unlock : ?persist_lock:bool -> Env.ctx -> instr:Instr.t -> Tval.t -> unit
