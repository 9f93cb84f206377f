(** Likely persistence-ordering invariant inference (WITCHER-style).

    Mine invariants from the event streams of correct executions, one
    event at a time, then check other executions against them — offline
    over a recorded stream, or online (the fuzzer's violation monitor).

    Two shapes:
    - [Order {first; next}] — whenever [first] issues a store before
      [next] does, [first]'s store is already durable (fence-persisted)
      by the time [next] first issues.  The commit discipline "data
      durable before the flag".
    - [Commit {site}] — whenever one fence persists stores from two or
      more distinct sites (an {e epoch}), [site]'s store was the last
      one issued: the epoch's commit variable.

    All predicates are first-occurrence-per-execution, and the miner and
    checker share one per-execution tracker (last writer and store
    sequence number per word, per-site grouping at each fence) that
    raises the identical program points — so checking the traces an
    invariant set was mined from yields zero violations by construction.
    Support counts the executions (Order) / epochs (Commit) where the
    invariant was meaningful and held; mined specs were never violated
    and reach [min_support]. *)

module Instr = Runtime.Instr

type inv = Order of { first : Instr.t; next : Instr.t } | Commit of { site : Instr.t }

type spec = { inv : inv; support : int }

type violation = {
  v_inv : inv;
  v_site : Instr.t;
      (** the site whose event exposed the violation: the too-early
          [next] store, or the usurping last store of a commit epoch *)
  v_addr : int;  (** its PM word *)
  v_words : int list;
      (** the still-pending words of [first] (Order) or the epoch's
          persisted words (Commit), sorted *)
}

(** {1 Mining} *)

type t

val create : ?min_support:int -> unit -> t
(** [min_support] (default 2): least meaningful-and-held count for a
    candidate to survive {!mine}. *)

val step : t -> Runtime.Env.event -> unit
(** Fold one event of the current (correct) execution into the candidate
    statistics, in program order. *)

val finish : t -> unit
(** End the current execution: drop its per-execution tracking state. *)

val absorb : t -> Runtime.Env.event list -> unit
(** {!step} over a recorded event stream, then {!finish}. *)

val executions : t -> int

val mine : t -> spec list
(** Never-violated candidates with enough support, deterministically
    sorted (Order before Commit, then by site ids). *)

(** {1 Checking} *)

type checker

val checker : spec list -> checker

val reset : checker -> unit
(** Clear per-execution state (between campaigns). *)

val check_step : checker -> emit:(violation -> unit) -> Runtime.Env.event -> unit
(** Feed one event in program order; [emit] receives violations as they
    are exposed. *)

val check : spec list -> Runtime.Env.event list -> violation list
(** Offline: fold a fresh checker over a full event stream. *)

(** {1 Printing} *)

val label : inv -> string
(** Stable human-readable identity, e.g. ["order a.c:x -> a.c:flag"] —
    also the dedup key for violation findings. *)

val inv_kind_slug : inv -> string
(** ["order" | "commit"] — metrics label / artifact slug. *)

val pp_spec : Format.formatter -> spec -> unit
