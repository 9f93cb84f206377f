(** Undo-log transactions, mini-PMDK style.  Tracked stores are reverted by
    {!recover} when a crash interrupts an uncommitted transaction — which
    is what turns transaction-protected inconsistencies into validated
    false positives (§4.4).  Note that, as in PMDK, transactions give no
    isolation: PM writes inside a transaction are immediately visible to
    other threads. *)

type t

exception Log_full

val default_whitelist : string list
(** The PMDK-aware whitelist entries (redo-logged transactional
    allocation and recovery sites). *)

val begin_ : Runtime.Env.ctx -> t
val store : Runtime.Env.ctx -> t -> Runtime.Tval.t -> Runtime.Tval.t -> unit
(** Undo-log then write; flushed at {!commit}. *)

val alloc_into : Runtime.Env.ctx -> t -> dst:Runtime.Tval.t -> words:int -> int
(** Transactional allocation: store the fresh chunk's offset into [dst]
    (undo-logged, at the whitelisted allocation site) and return it. *)

val commit : Runtime.Env.ctx -> t -> unit
val recover : Runtime.Env.ctx -> unit
(** Revert every lane with an uncommitted log. *)
