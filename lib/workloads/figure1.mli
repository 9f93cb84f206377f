(** The running example of the paper's Figure 1, as a tiny fuzzing target:
    two threads over a shared variable [x], a derived variable [y], and a
    persisted lock [g] that recovery never resets. *)

val x_off : int
(** PM word of the shared variable x. *)

val y_off : int
(** PM word of y (its own cache line). *)

val g_off : int
(** PM word of the lock g. *)

val put : Runtime.Env.ctx -> int -> unit
(** Thread-1's path: lock g, store x, delayed flush, unlock. *)

val get : Runtime.Env.ctx -> unit
(** Thread-2's path: read x, write it to y, flush y. *)

val target : Pmrace.Target.t

val planted : Pmrace.Target.t
(** ["figure1-planted"]: the opt-in ground-truth variant for the
    second-generation detectors.  Its [put] releases the lock before x is
    flushed (violating the mined "store_x durable before unlock_g"
    invariant in every execution) and its recovery writes a marker word
    it never flushes (the missing-recovery-path-flush class).  Reachable
    by name through {!Registry.find} but excluded from
    {!Registry.names}/{!Registry.with_examples}. *)
