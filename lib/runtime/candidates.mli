(** PM Inter-/Intra-thread Inconsistency Candidates (§3.1, Definition 1).

    A candidate is recorded whenever a load observes non-persisted PM data;
    its id doubles as the taint label carried by the loaded value. *)

type kind = Inter  (** written by a different thread *) | Intra  (** same thread *)

type cand = {
  id : int;
  kind : kind;
  addr : int;
  read_instr : Instr.t;
  read_tid : int;
  write_instr : Instr.t;
  write_tid : int;
}

(** {1 Packed keys}

    A unique candidate's identity: its (write site, read site, kind), as
    raw site ids ({!Instr.to_int}) below [2^site_bits] packed into one
    int, ordered as (write, read, kind) with [Inter] first.  The checkers,
    the session report and, for [Inter], PM alias coverage's achieved
    site pairs all use it. *)

val site_bits : int
(** 20.  {!Checkers.inc_key} shifts a key by this to add a site. *)

val key : write:int -> read:int -> kind -> int
val key_pair : int -> int * int
val key_kind : int -> kind
(** [key_pair k] decodes (write, read), [key_kind k] the kind. *)

module Tbl : Hashtbl.S with type key = int
(** Tables keyed by packed keys, hashed without a C call. *)

(** {1 Candidate tables} *)

type t

val create : unit -> t

val register :
  t -> addr:int -> read_instr:Instr.t -> read_tid:int -> write_instr:Instr.t -> write_tid:int -> cand
(** Record a dynamic candidate; [kind] is derived from the tids. *)

val reset : t -> unit
(** Forget every candidate: ids restart at 0, as after {!create}. *)

val get : t -> int -> cand
(** The candidate a taint label names.  The label must be below
    {!dynamic_count}; allocates nothing. *)

val dynamic_count : t -> int
(** Number of dynamic candidate occurrences. *)

val iter_unique : (int -> cand -> unit) -> t -> unit
(** Every unique candidate's packed key with its first occurrence. *)

val unique : t -> kind -> cand list
(** One representative per unique (write site, read site) pair — the
    grouping used for Table 3. *)

val unique_count : t -> kind -> int
val pp_kind : Format.formatter -> kind -> unit
