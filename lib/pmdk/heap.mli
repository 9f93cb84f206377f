(** Persistent bump allocator with crash-consistent (non-temporally
    published) metadata, mirroring PMDK's redo-logged allocator. *)

exception Out_of_memory

val format : Runtime.Env.ctx -> pool_words:int -> unit
val round_up_line : int -> int

val alloc : Runtime.Env.ctx -> words:int -> int
(** Allocate a line-aligned chunk; returns its word offset (untainted).
    Race-free under preemption.  @raise Out_of_memory when the heap is
    exhausted. *)

val used : Runtime.Env.ctx -> int
(** Words allocated so far. *)
