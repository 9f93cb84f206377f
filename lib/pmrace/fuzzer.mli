(** The PM-aware coverage-guided fuzzing loop (§4.2.3), with its three
    exploration tiers (execution / interleaving / seed), the Delay-Inj and
    random-scheduler baselines, immediate post-failure validation of new
    findings, and a timeline for the Figure 8/9 series.

    The §5 worker pool runs [config.workers] OCaml 5 domains sharing a
    {!Hub} (coverage, priority queue, report, budget); each worker owns
    its RNG streams, corpus and campaign scratch, so campaigns execute
    lock-free and workers only synchronise at campaign boundaries.
    [workers = 1] runs the identical sequential code path and RNG
    streams, so seeded paper-profile sessions are bit-for-bit
    reproducible; parallel sessions are deterministic as a {e set} of
    unique bugs (the report deduplicates by bug identity, independent of
    merge order). *)

type mode =
  | Mode_pmrace  (** sync-point scheduling over the shared-access queue *)
  | Mode_delay  (** random delay injection (the Fig. 8 baseline) *)
  | Mode_random  (** plain random scheduling *)

val max_workers : int
(** 127: OCaml 5.1 runs at most 128 domains, the main domain included,
    and a session with more than one worker spawns one per worker. *)

(** A session's settings.  What no caller varies is fixed: each
    interleaving runs up to 3 campaigns, each seed tries up to 8 queue
    entries, each worker's initial corpus holds 2 random seeds besides
    its populate seed, every campaign runs under
    {!Campaign.default_step_budget}, the whitelist is the target's own,
    and caches are never evicted at random. *)
type config = {
  (* Construct with {!Config.make}; the record stays public (and
     pattern-matchable) for readers, but building it literally is
     deprecated — every new field breaks such callers. *)
  max_campaigns : int;
  master_seed : int;
  mode : mode;
  interleaving_tier : bool;  (** [false] = the "w/o IE" ablation of Fig. 9 *)
  seed_tier : bool;  (** [false] = the "w/o SE" ablation of Fig. 9 *)
  use_checkpoint : bool;  (** reuse an in-memory pool checkpoint (§5) *)
  validate : bool;
  eadr : bool;  (** fuzz on an eADR platform (§6.6): caches are persistent *)
  workers : int;  (** worker domains sharing the hub (§5); each runs on its
                      own OCaml 5 domain; at most {!max_workers} *)
  static_prepass : bool;
      (** run the offline analyzer ({!Analyze}) first: its site graph
          bounds alias coverage (achieved/possible) and seeds touching
          uncovered possible pairs are preferred as mutation parents.
          Off by default so that the paper-profile sessions are driven by
          coverage alone; the CLI turns it on unless [--no-static]. *)
  invariants : bool;
      (** mine likely persistence-ordering invariants ({!Analysis.Invariants})
          from the pre-pass seed traces and monitor every campaign for
          violations, validating first sightings post-failure
          (through {!Report.validate}).  Forces a pre-pass run even
          without [static_prepass], but never installs the site-graph
          denominator on its own.  Off by default so seeded sessions stay
          bit-identical; the CLI enables it with [--invariants]. *)
  corpus_sched : bool;
      (** AFL-style corpus scheduling ({!Corpus_sched}): mutation parents
          are leased from the favored cover of the achieved alias-pair set
          (recomputed each generation) instead of drawn uniformly from the
          whole corpus.  Off by default so seeded sessions stay
          bit-identical; the CLI enables it with [--corpus-sched]. *)
  crash_images : int;
      (** post-failure crash-image budget ({!Pmem.Crash_images}): how many
          enumerated crash images each candidate is validated against.
          [1] (the default) validates only the base image — the
          historical single-image behaviour, pinned by the golden
          sessions; the CLI raises it with [--crash-images]. *)
  por : bool;
      (** partial-order reduction: campaigns run under the scheduler's
          sleep sets ({!Sched.Scheduler.run} with POR hooks), each
          completed schedule gets a canonical Mazurkiewicz-trace hash, and
          post-failure validation is skipped for campaigns whose (trace,
          seed) class was already validated.  Off by default so seeded sessions stay
          bit-identical; the CLI enables it with [--por]. *)
}

val default_config : config

(** The configuration front door.  [Config.make] is an optional-argument
    builder over {!default_config}: callers name only the fields they
    change, so adding a config field never breaks them.  Prefer it over
    literal record construction everywhere. *)
module Config : sig
  type t = config

  val default : t

  val make :
    ?max_campaigns:int ->
    ?master_seed:int ->
    ?mode:mode ->
    ?interleaving_tier:bool ->
    ?seed_tier:bool ->
    ?use_checkpoint:bool ->
    ?validate:bool ->
    ?eadr:bool ->
    ?workers:int ->
    ?static_prepass:bool ->
    ?invariants:bool ->
    ?corpus_sched:bool ->
    ?crash_images:int ->
    ?por:bool ->
    unit ->
    t
  (** Unspecified fields take their {!default} values; [workers] and
      [crash_images] are clamped to at least 1. *)
end

val config_codec : config Obs.Codec.t
(** The session artifact's ["config"] object.  Decoding goes through
    {!Config.make}; fields added after v1 ([invariants], [corpus_sched],
    [crash_images], [por]) default when absent.  The six settings this
    build fixes (see {!config}) are still written, as their fixed
    values; a document recording any other value is an [Error] naming
    the field, e.g.
    [config.step_budget: recorded 1234; this build runs 60000]. *)

type provenance = Hub.provenance = {
  p_seed : Seed.t;
  p_sched_seed : int;
  p_policy : string;  (** human-readable policy label for reports *)
  p_spec : Campaign.policy_spec;
      (** the policy itself, serialisable — [pmrace replay] rebuilds the
          campaign input from it *)
  p_trace : int64 option;
      (** canonical Mazurkiewicz-trace hash (POR campaigns only) *)
}
(** The exact inputs that replay one campaign. *)

type timeline_point = Hub.timeline_point = {
  tp_campaign : int;
  tp_time : float;
  tp_alias_bits : int;
  tp_branch_bits : int;
  tp_inter_unique : int;
  tp_new_inter : bool;
}

type session = {
  report : Report.t;
  alias : Alias_cov.t;
  branch : Branch_cov.t;
  timeline : timeline_point list;  (** chronological *)
  campaigns_run : int;
  wall_time : float;
  annotations : int;  (** sync-variable annotations the target registers *)
  whitelist : Whitelist.t;
  provenance : (int, provenance) Hashtbl.t;  (** campaign index -> inputs *)
  static : Analysis.Analyzer.result option;
      (** the static pre-pass result, when [static_prepass] was on *)
  worker_campaigns : int array;
      (** campaigns completed per worker (index = worker id) *)
  por : Hub.por_totals option;
      (** aggregate pruning/trace-dedup counters; [None] unless the
          session ran with [config.por] *)
}

val run : ?log:(string -> unit) -> ?obs:Obs.Events.t -> Target.t -> config -> session
(** Raises [Invalid_argument] when [cfg.workers] exceeds {!max_workers},
    before it builds anything.  [obs] receives the structured event
    stream (session/campaign boundaries, new alias pairs, candidates,
    verdicts).  Event emission
    never draws from the fuzzer's RNG streams, so attaching a sink leaves
    seeded sessions bit-identical. *)

(** {2 The reusable worker loop}

    The fuzzing loop, split from the shared side it feeds.  A {!sink} is
    the worker's budget and commit path: {!run} binds it to the session's
    {!Hub} (pure indirection — [run] with [workers = 1] makes exactly the
    sequential fuzzer's calls), and fleet workers ({!Fleet.Worker}) bind
    it to a wrapper that enforces the coordinator's lease budget and
    accumulates a wire delta.  Everything a campaign adds to the session
    (coverage, findings, invariant hits, its POR trace, the seed's static
    re-score) goes through [sk_commit]; besides the sink the worker only
    reads the priority queue and the progress count on the set-up's hub. *)

type sink = {
  sk_budget_left : unit -> bool;  (** advisory loop-condition check *)
  sk_reserve : Hub.provenance -> int option;
      (** claim the next campaign slot; [None] = wind down *)
  sk_commit :
    campaign:int ->
    seed:Seed.t ->
    delta:Hub.delta ->
    ?sites:Site_set.t ->
    invariants:Inv_monitor.hit list ->
    Campaign.result ->
    Hub.commit_result;
      (** {!Hub.commit}'s signature: the campaign's seed, delta, touched
          sites (static pre-pass only), drained invariant hits and result
          enter in one critical section; [c_first_trace] in the result
          gates post-failure validation *)
}

type worker
(** One worker's private state: RNG streams (derived from
    [cfg.master_seed] and [widx], so worker 0 reproduces the sequential
    streams in any process), corpus, generation counter, campaign scratch
    tables, and a persistent-mode {!Engine}. *)

type setup
(** A session's shared set-up: the checkpoint (when [use_checkpoint]),
    the static pre-pass (when [static_prepass] or [invariants]), a
    {!Hub} with the pre-pass denominator, lint findings and mined
    invariants installed, the target's whitelist, and the invariant
    specs the workers monitor. *)

val setup : ?log:(string -> unit) -> Target.t -> config -> setup
(** Build a session's set-up — the one path {!run} and fleet workers
    share.  The hub's budget is [cfg.max_campaigns].  A pure function of
    its arguments, so every process of a fleet computes it identically;
    [log] receives the pre-pass summary lines. *)

val setup_hub : setup -> Hub.t

val create_worker :
  ?log:(string -> unit) ->
  ?obs:Obs.Events.t ->
  ?capture:Runtime.Checkers.capture ->
  sink:sink ->
  widx:int ->
  setup ->
  worker
(** The worker's initial corpus is one populate seed plus two random
    seeds, drawn from its [gen_rng].  It shares the set-up's checkpoint,
    whitelist and invariant specs.

    Its engine captures a crash surface only for a finding the worker
    does not know yet: the worker learns every first sighting its
    commits return, and validates nothing else.  With one worker a
    surface is captured exactly for each session first sighting; another
    worker's sightings only make it capture more.  With [cfg.validate]
    off it captures none, and neither does its invariant monitor.
    [capture] replaces that filter (e.g. {!Runtime.Checkers.all}, the
    reference a differential test compares the filter against). *)

val worker_loop : worker -> unit
(** Claim seeds and fuzz them until [sk_budget_left] (checked between
    campaigns) or [sk_reserve] (authoritative) says stop. *)

val refresh_corpus : worker -> Seed.t list -> unit
(** Prepend seeds (a fleet lease) to the worker's corpus; they are
    registered with the corpus scheduler when [corpus_sched] is on. *)

val campaigns_done : worker -> int

val assemble_session : worker_campaigns:int array -> setup -> session
(** Build a {!session} from the set-up's drained hub (shared by [run] and
    the fleet worker's shard artifact).  Single-domain: call after
    workers stop. *)

val found_known_bugs : session -> Target.t -> (Target.known_bug * bool) list
(** Match the session's findings against the target's seeded ground truth:
    Inter/Intra/Sync via validated bug groups, "Other" bugs via candidate
    pairs or hang + branch evidence. *)
