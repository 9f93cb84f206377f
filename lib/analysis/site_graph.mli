(** Site graph: per-target aggregation of {!Runtime.Instr.t} sites into a
    store/flush/fence/load graph across seed executions.

    This is the reproduction's analogue of PMRace's LLVM pre-pass
    (PAPER §4.1–4.2): where the paper walks the IR to find PM-relevant
    instructions and the statically-possible PM access pairs, we aggregate
    the sites observed across a set of recorded seed executions.  Each
    node is a static instruction site with per-kind occurrence counts;
    edges connect sites that touched a common address (store→load
    aliasing) or whose operations composed into a persist (store→flush,
    flush→fence). *)

module Instr = Runtime.Instr

type kind = K_store | K_movnt | K_load | K_flush | K_fence

type node = {
  n_site : Instr.t;
  mutable n_stores : int;
  mutable n_movnts : int;
  mutable n_loads : int;
  mutable n_flushes : int;
  mutable n_fences : int;
  mutable n_addrs : int;  (** distinct addresses this site touched *)
}

type t

val create : unit -> t

val step : t -> Runtime.Env.event -> unit
(** Fold one event of the current execution into the graph, in program
    order. *)

val finish : t -> unit
(** End the current execution: drop its per-execution flush state.  The
    graph accumulates across executions. *)

val absorb : t -> Runtime.Env.event list -> unit
(** {!step} over a recorded event stream, then {!finish}. *)

val executions : t -> int
(** Number of executions finished. *)

val nodes : t -> node list
(** All sites seen, ordered by site id. *)

val node : t -> Instr.t -> node option

val writers_of : t -> int -> Instr.t list
(** Sites that stored (cached or non-temporal) to an address. *)

val readers_of : t -> int -> Instr.t list
(** Sites that loaded from an address. *)

val shared_addrs : t -> int list
(** Addresses touched by both a writing site and a reading site. *)

val possible_pairs : t -> (Instr.t * Instr.t) list
(** The statically-possible (write-site, read-site) alias pairs: for every
    address, the cross product of its writers and its readers, deduplicated
    over the whole pool.  This is the denominator of alias-pair coverage —
    every dynamically achieved dirty-read pair is drawn from this set. *)

val possible_count : t -> int

val flush_edges : t -> (Instr.t * Instr.t) list
(** (store site, flush site) pairs: the flush site cleaned a line holding
    that store site's dirty data. *)

val fence_edges : t -> (Instr.t * Instr.t) list
(** (flush site, fence site) pairs: the fence drained that flush's
    write-back. *)

val pp_summary : Format.formatter -> t -> unit
