(** CCEH (commit 46771e3): lock-based extendible hashing with persisted
    segment locks (bug 6, [CCEH.h:86]) and an unflushed-capacity window in
    directory doubling (bug 7, [CCEH.h:165] -> [CCEH.cpp:171]). *)

val put : Runtime.Env.ctx -> int -> Runtime.Tval.t -> unit
val get : Runtime.Env.ctx -> int -> Runtime.Tval.t option
val delete : Runtime.Env.ctx -> int -> unit

val target : Pmrace.Target.t
