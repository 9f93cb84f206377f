(** Fuzzing inputs: operation sequences distributed over worker threads
    (§4.5).  PM systems are in-memory stores with interactive APIs, so the
    input generator works on structured operations rather than raw bytes. *)

module Rng = Sched.Rng

type op =
  | Put of { key : int; value : int }
  | Get of { key : int }
  | Update of { key : int; value : int }
  | Delete of { key : int }
  | Incr of { key : int; delta : int }
  | Decr of { key : int; delta : int }
  | Append of { key : int; value : int }
  | Prepend of { key : int; value : int }
  | Scan of { key : int; count : int }
  | Cas of { key : int; value : int; token : int }
  | Touch of { key : int; exptime : int }
  | Flush_all
  | Stats

type op_kind =
  | KPut
  | KGet
  | KUpdate
  | KDelete
  | KIncr
  | KDecr
  | KAppend
  | KPrepend
  | KScan
  | KCas
  | KTouch
  | KFlushAll
  | KStats

val kind_of_op : op -> op_kind
val key_of : op -> int

type profile = {
  supported : op_kind list;  (** operations the target's interface accepts *)
  key_range : int;
  value_range : int;
  threads : int;
  ops_per_thread : int;
}

val default_profile : profile

type t
(** A seed: one operation sequence per worker thread. *)

val make : op array array -> t
val gen : Rng.t -> profile -> t
(** Generate a fresh random seed, biased towards reusing nearby keys so
    that threads collide on shared data. *)

val gen_op : Rng.t -> profile -> near:int option -> op

val threads : t -> op array array
(** The operations per thread.  Read-only: mutators copy them into a new
    seed ({!make}), and {!fingerprint} is cached. *)

val all_ops : t -> op list
val op_count : t -> int
val id : t -> int

val priority : t -> int
(** Static-analysis priority: number of uncovered statically-possible
    alias pairs this seed's executions touch (0 until the fuzzer scores
    it).  Higher-priority seeds are preferred as mutation parents. *)

val set_priority : t -> int -> unit

val fingerprint : t -> int64
(** Stable content hash (64-bit FNV-1a) over the rendered operation
    sequences, with explicit thread/op separators.  Depends only on the
    seed's operations — independent of seed ids and of the process's
    [Instr] site-id layout — so corpus entries deduplicate correctly
    across worker processes and store restarts.  Computed on first use
    and cached in the seed. *)

val codec : t Obs.Codec.t
(** The JSON form every artifact, wire frame and store file uses: one
    list per thread of ["op"]-tagged objects.  Decoding makes a fresh
    seed. *)

val render_op : op -> string
(** Text rendering in the memcached protocol (driver input and the Table 4
    mutator comparison). *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
