(** Offline persistency analyzer: the orchestration layer.

    Attach it to each of a set of seed executions; it builds the
    {!Site_graph}, computes the statically-possible alias pairs with
    achieved accounting ({!Alias_pairs}), runs the {!Lint} pass, and —
    when enabled — mines likely persistence-ordering invariants
    ({!Invariants}).  Every pass takes one step per event and one call
    at the end of the execution, so no event stream is buffered.

    The second-generation detectors are gated by {!config} and default
    OFF: {!default_config} reproduces the original analyzer exactly,
    which keeps the fuzzer's seeded static pre-pass bit-identical with
    the pinned goldens.  {!full} turns everything on. *)

type config = {
  taxonomy : bool;  (** PM-bug-taxonomy lint classes (see {!Lint.kind}) *)
  invariants : bool;  (** likely-invariant mining *)
  min_support : int;  (** support threshold handed to {!Invariants.create} *)
  region_of : (int -> int) option;
      (** pool-region classifier for the cross-region ordering detector *)
}

val default_config : config
(** Everything off — byte-identical behaviour to the v1 analyzer. *)

val full : config
(** Taxonomy + invariants on ([min_support] 2, no region map — callers
    supply one when the pool layout is known). *)

type t

type result = {
  r_graph : Site_graph.t;
  r_pairs : Alias_pairs.t;
  r_findings : Lint.finding list;
  r_invariants : Invariants.spec list;  (** mined specs; [[]] when mining is off *)
  r_executions : int;
}

val create : ?cfg:config -> unit -> t
val config : t -> config

val attach : t -> Lint.phase -> Runtime.Env.t -> unit
(** Subscribe to one live execution as a single listener.  In [`Normal]
    phase each event steps the site graph, the lint pass and (when
    enabled) the invariant miner; in [`Recovery] phase it steps only the
    lint pass, and only when the config enables taxonomy.  Call {!finish}
    with the same phase when the execution ends. *)

val finish : t -> Lint.phase -> unit
(** End the execution {!attach} subscribed to.  A [`Recovery] finish
    turns end-of-trace dirty residue into the missing-recovery-flush
    class. *)

val absorb : t -> Runtime.Env.event list -> unit
(** Analyse one recorded normal execution: the same per-event step as
    {!attach}, then {!finish}. *)

val result : t -> result
(** Snapshot the analysis: possible pairs come from the site graph,
    achieved pairs from the cross-thread dirty reads the lint FSM
    observed, so achieved is always a subset of possible. *)

val pp_report : Format.formatter -> result -> unit
(** The [pmrace analyze] report: site-graph summary, alias coverage as
    achieved/possible, the deduplicated findings with per-class counts,
    and the mined invariant set when non-empty. *)
