(** Achieved-vs-possible accounting for PM alias pairs.

    The {!Site_graph} supplies the statically-possible (write-site,
    read-site) pairs — the denominator.  The analyzer's lint pass marks
    pairs {e achieved} whenever a load actually observed another thread's
    non-persisted store at runtime.  Coverage is then reported as
    achieved/possible, and the uncovered remainder, which the fuzzer's hub
    copies once at session start, drives seed prioritisation. *)

module Instr = Runtime.Instr

type pair = { pw : Instr.t;  (** write site *) pr : Instr.t  (** read site *) }

type t

val create : unit -> t

val of_site_graph : Site_graph.t -> t
(** Seed the possible set from a site graph's {!Site_graph.possible_pairs}. *)

val add_possible : t -> write:Instr.t -> read:Instr.t -> unit

val mark_achieved : t -> write:Instr.t -> read:Instr.t -> unit
(** Record a dynamically observed cross-thread dirty-read pair.  Pairs
    outside the possible set are counted too (the site graph is built from
    finitely many seed executions, so the fuzzer can escape it); they are
    reported separately by {!beyond_static}. *)

val possible : t -> pair list
val possible_count : t -> int
val achieved_count : t -> int
(** Achieved pairs that are inside the possible set. *)

val beyond_static : t -> int
(** Achieved pairs the static pass did not predict. *)

val uncovered : t -> pair list
(** Possible pairs not yet achieved. *)

val pp : Format.formatter -> t -> unit
