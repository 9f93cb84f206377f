(** Pool layout conventions shared by the mini-PMDK components: pool
    header, workload root area, heap metadata, per-lane undo logs, heap
    data.  All offsets are word offsets. *)

val magic : int64
val magic_off : int
val kind_off : int
val root_base : int
val root_words : int
val heap_meta : int
val log_base : int
val log_lanes : int
val log_entries : int
val heap_base : int

val log_off : int -> int
(** Base offset of a lane's undo log. @raise Invalid_argument on a bad lane. *)

val lane_of_tid : int -> int
(** Worker tids map to lanes 0..3; anything else uses the recovery lane. *)
