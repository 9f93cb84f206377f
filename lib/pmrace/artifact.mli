(** Versioned JSON session artifacts ([pmrace fuzz --json-out FILE]).

    An artifact is the durable record of one fuzzing session: the exact
    configuration, the coverage outcome and timeline, the unique-bug
    groups, every campaign's provenance (seed, scheduler seed, policy
    spec), and the metrics snapshot.  [pmrace replay] and the benchmark
    harness consume artifacts instead of re-deriving state from live
    sessions.

    The encoding is {!Obs.Json} (hand-rolled, no dependencies) under a
    [schema]/[version] header.  Readers reject unknown schemas and newer
    majors; adding fields is a compatible change and does not bump the
    version. *)

val schema : string
(** ["pmrace-session"] *)

val version : int
(** [6]: each distinct provenance seed is written once, in a top-level
    ["seeds"] table, and a provenance ["seed"] is its index there; v5
    added [config.por], the per-campaign canonical trace hash in
    provenance, and the session-level POR pruning totals; v4 added
    [config.crash_images] and the per-bug [image_index] (which
    enumerated crash image reproduced the bug, for replay); v3 added
    the per-shard [origins] list written by {!merge} (fleet mode) and
    [config.corpus_sched]; v2 added the lint-finding list, the
    mined-invariant section, and [config.invariants].  Older artifacts
    still decode (the new fields default to empty/false/defaults);
    artifacts before v6 hold their seeds inline; newer-than-[version]
    artifacts are rejected. *)

type bug = {
  b_kind : string;  (** "inter" | "intra" | "sync" *)
  b_site : string;  (** write site, or sync variable name *)
  b_read_sites : string list;
  b_members : int;
  b_first_campaign : int option;
      (** campaign index of the group's earliest member finding, whatever
          its verdict *)
  b_image_index : int option;
      (** crash-image index ({!Pmem.Crash_images} enumeration order) of
          the earliest member's bug verdict — the image replay rebuilds;
          [None] in pre-v4 artifacts *)
}

type prov_entry = {
  pr_campaign : int;
  pr_sched_seed : int;
  pr_policy : string;  (** human-readable label *)
  pr_seed : Seed.t;
  pr_spec : Campaign.policy_spec;
  pr_trace : int64 option;
      (** canonical Mazurkiewicz-trace hash of the executed schedule
          ({!Por.stats}); [None] when POR was off or in pre-v5 artifacts *)
}

type lint_entry = {
  l_kind : string;  (** {!Analysis.Lint.kind_slug} *)
  l_severity : string;  (** "high" | "medium" | "low" *)
  l_write_site : string option;
  l_site : string;
  l_addr : int;
  l_count : int;
}

type inv_spec_entry = {
  ie_label : string;  (** {!Analysis.Invariants.label} *)
  ie_kind : string;  (** "order" | "commit" *)
  ie_support : int;
}

type inv_finding_entry = {
  ivf_label : string;
  ivf_kind : string;
  ivf_site : string;
  ivf_addr : int;
  ivf_campaign : int;
  ivf_verdict : string option;
}

type origin = {
  o_label : string;  (** merge-time label, normally the shard's file name *)
  o_campaigns : int;
  o_wall_time : float;
  o_offset : int;
      (** the shard's campaign re-index base: add it to an index local to
          the shard to get the merged index *)
}
(** One merged-in session shard (v3). *)

type t = {
  a_target : string;
  a_config : Fuzzer.config;
  a_campaigns : int;
  a_wall_time : float;
  a_annotations : int;
  a_worker_campaigns : int list;
  a_alias_bits : int;
  a_branch_bits : int;
  a_possible_pairs : int option;
  a_site_pairs : (string * string) list;  (** (write site, read site), by name *)
  a_timeline : Fuzzer.timeline_point list;
  a_bugs : bug list;
  a_hangs : (string * int) list;
  a_lint : lint_entry list;  (** static pre-pass lint findings (v2) *)
  a_invariants : inv_spec_entry list;  (** the mined monitor set (v2) *)
  a_inv_findings : inv_finding_entry list;  (** invariant violations (v2) *)
  a_provenance : prov_entry list;  (** sorted by campaign index *)
  a_origins : origin list;
      (** merged shards in merge order (v3); [[]] for a single session *)
  a_por : Hub.por_totals option;
      (** schedule-pruning totals (v5); [None] when POR was off.  After
          {!merge}, counters are summed across shards — trace dedup is
          shard-local, so the merged unique-trace count is an upper
          bound. *)
  a_metrics : Obs.Json.t;  (** opaque {!Obs.Metrics.to_json} snapshot *)
}

val of_session : target:Target.t -> cfg:Fuzzer.config -> Fuzzer.session -> t
val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Decoding re-registers instruction site names via {!Runtime.Instr.site},
    so policy specs round-trip into live campaign inputs.  Provenance
    entries that refer to one seeds-table entry share one decoded
    [Seed.t].  Errors name the path to the bad value; decoding never
    raises. *)

val write : path:string -> t -> unit
val read : path:string -> (t, string) result

val find_provenance : t -> int -> prov_entry option
(** Look up one campaign's provenance by campaign index. *)

val bug_fingerprints : t -> (string * string) list
(** The (kind, site) pairs of the unique-bug groups, sorted — the
    session identity the golden round-trip test and [pmrace replay]
    compare. *)

val merge : (string * t) list -> (t, string) result
(** [merge [(label, shard); ...]] unions session shards of the {e same
    target} into one artifact ([pmrace merge]).  Campaign indices are
    re-based per shard (shard [i] shifts by the summed span of the shards
    before it) and the shifts are recorded in [a_origins], so provenance
    stays replayable by merged index.  Bug groups dedup by (kind, site)
    with members summed, read sites unioned and the earliest first
    sighting kept; named site pairs, lint and mined invariants union;
    campaign counts, wall time and hang counts sum.  Raw alias/branch
    bitmap counts are per-process, so the merged counts are the max over
    shards (a lower bound on the true union — [a_site_pairs] is exact).
    Merging already-merged artifacts flattens their origins under the
    outer label.  Errors on an empty list or a target mismatch;
    [a_config] is the first shard's. *)

type sighting = { kind : string; site : string; read_sites : string list; members : int }

val sighting : (sighting, sighting) Obs.Codec.fields
(** The bug-sighting fields ([kind], [site], [read_sites], [members])
    shared by artifact bugs, fleet wire bug frames and the fleet store's
    bug entries. *)

val first_campaign : Report.t -> Report.bug_group -> int option
(** The group's [bg_first_campaign] (the [b_first_campaign] source),
    always [Some].  Kept for the benchmark harness. *)
