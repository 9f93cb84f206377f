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

val unique : t -> kind -> cand list
(** One representative per unique (write site, read site) pair — the
    grouping used for Table 3. *)

val unique_count : t -> kind -> int
val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> cand -> unit
