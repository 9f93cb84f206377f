(** The shared side of the §5 worker pool, behind a domain-safe facade.

    Fuzzing workers run on OCaml 5 domains and share this hub the way
    PMRace's 13 worker processes share a coverage bitmap: all cross-worker
    state — alias/branch coverage, the shared-access priority queue, the
    report and its candidate tables, provenance, the timeline, and the
    campaign budget — lives here, serialised by one mutex.

    The protocol keeps campaign execution lock-free: workers {!reserve} a
    budget slot, run the campaign against a private {!delta}, and
    {!commit} its result at the campaign boundary — the one way a
    campaign's results enter the hub.  Merges are set unions
    and counter additions and the report deduplicates by bug identity, so
    the resulting unique-bug set is independent of commit interleaving,
    and one worker reproduces the sequential fuzzer bit for bit. *)

type provenance = {
  p_seed : Seed.t;
  p_sched_seed : int;
  p_policy : string;  (** human-readable policy label for reports *)
  p_spec : Campaign.policy_spec;
      (** the policy itself, serialisable — [pmrace replay] rebuilds the
          campaign input from it *)
  p_trace : int64 option;
      (** the campaign's raw Mazurkiewicz-trace hash, set by {!commit}
          for POR campaigns; [None] when reserved *)
}
(** The exact inputs that replay one campaign. *)

type timeline_point = {
  tp_campaign : int;
  tp_time : float;  (** seconds since session start *)
  tp_alias_bits : int;
  tp_branch_bits : int;
  tp_inter_unique : int;
  tp_new_inter : bool;
}

val timeline_point_codec : timeline_point Obs.Codec.t

type delta = private {
  d_alias : Alias_cov.t;
  d_branch : Branch_cov.t;
  d_queue : Shared_queue.t;
  d_tracker : Alias_cov.tracker;  (** per-execution alias scratch *)
}
(** A worker's private per-campaign coverage/queue accumulator; its
    {!recorder} writes to it without synchronisation. *)

type t

val create : ?static:Analysis.Alias_pairs.t -> max_campaigns:int -> unit -> t
(** [static] is the pre-pass's alias-pair accounting: the hub copies its
    uncovered pairs once and never writes to it. *)

val budget_left : t -> bool
(** Advisory lock-free check for worker loop conditions; {!reserve} is the
    authoritative check-and-claim, so the budget is never overshot. *)

val reserve : t -> provenance -> int option
(** Claim the next campaign slot and record its provenance; [None] when
    the budget is exhausted (the worker should wind down). *)

val fresh_delta : unit -> delta

val recorder : delta -> sites:Site_set.t ref option -> Runtime.Env.event -> unit
(** The worker's coverage recorder, for its pre-bound listener array
    ({!Engine.create}'s [bound]): one match per event updates the
    delta's alias map, branch coverage and shared queue and, with
    [sites], records the site of every PM access into the set [sites]
    points at (the fuzzer retargets it per campaign).  The alias part
    shares the delta's tracker, so call {!reset_delta} between
    campaigns. *)

val reset_delta : delta -> unit
(** Empty a delta (coverage structures and alias tracker) for reuse —
    observationally equivalent to a {!fresh_delta}. *)

val merge_delta_into : src:delta -> dst:delta -> (unit, string) result
(** Fold one delta into another (set unions / counter additions — the same
    algebra the shared-side merge uses).  Fleet workers accumulate each
    campaign delta into a "wire" delta before {!reset_delta}; the wire
    delta is what ships to the coordinator.  A decoded delta may carry
    an alias bitmap of another size: then nothing is merged and the
    result is [Error]. *)

val delta_codec : delta Obs.Codec.t
(** Wire/store codec: the delta's coverage structures with sites encoded
    by {e name}, so a delta serialised in one worker process decodes and
    merges correctly in the coordinator regardless of site-id layout. *)

val delta_to_json : delta -> Obs.Json.t
val delta_of_json : Obs.Json.t -> (delta, string) result

type commit_result = {
  c_improved : bool;  (** the merge contributed new coverage bits *)
  c_new : Report.finding list;
      (** the campaign's first sightings: inconsistencies, then sync
          events *)
  c_new_invariants : Report.finding list;
      (** first sightings (by label, across workers) of the campaign's
          mined-invariant hits, in hit order *)
  c_new_pairs : (int * int) list;
      (** (write, read) site pairs first achieved by this merge, as raw
          instruction ids, sorted — the fuzzer turns them into
          [new_alias_pair] events.  Derived from the delta alone
          ({!Alias_cov.fresh_pairs}): O(delta), not O(shared map).  The
          delta's pairs are the campaign's unique [Inter] candidate
          pairs. *)
  c_alias_bits : int;  (** shared coverage after this merge *)
  c_branch_bits : int;
  c_first_trace : bool;
      (** first sighting of the campaign's (trace, seed) class — only then
          should the worker spend post-failure validation.  Always [true]
          for non-POR campaigns. *)
}

val commit :
  t ->
  campaign:int ->
  seed:Seed.t ->
  delta:delta ->
  ?sites:Site_set.t ->
  invariants:Inv_monitor.hit list ->
  Campaign.result ->
  commit_result
(** The campaign-boundary merge.  First, outside the lock, the result's
    unique [Inter] candidates enter the delta as its achieved site pairs
    ({!Alias_cov.record_candidates}), so a fleet worker's wire delta
    carries them too.  Then, in one critical section: fold the delta
    into shared coverage, absorb the result's checker findings and the
    drained [invariants] hits into the report, extend the timeline, and,
    when the campaign ran under POR, register its trace class (salted
    with [Seed.fingerprint seed]) and pruning counters and record the raw
    trace hash in the campaign's provenance.  With a static denominator
    the newly achieved pairs leave the hub's uncovered set and [seed]'s
    priority becomes the number of uncovered possible pairs both of
    whose sites are in [sites] (the owning worker's touched-site set; no
    re-score without it).  The caller validates the returned first sightings outside the
    lock, gated on [c_first_trace]. *)

type por_totals = {
  pt_campaigns : int;  (** campaigns run under POR *)
  pt_pruned : int;  (** sleep-set-suppressed scheduler picks, summed *)
  pt_forced_wakes : int;
  pt_unique_traces : int;  (** distinct (trace hash, seed) classes seen *)
  pt_dup_traces : int;  (** campaigns whose validation was skipped as redundant *)
}

val por_totals_codec : por_totals Obs.Codec.t

val por_totals : t -> por_totals option
(** Aggregate pruning counters; [None] when no campaign ran under POR.
    Single-domain accessor (see below). *)

val queue_entries : t -> Shared_queue.entry list
(** Snapshot of the shared-access priority queue (locked). *)

val completed : t -> int
(** Campaigns committed so far. *)

val elapsed : t -> float

(** {2 Single-domain accessors}

    Unsynchronised views for pre-spawn setup (installing the static
    denominator and lint findings) and post-join session assembly.  Only
    use while no worker domain is live. *)

val alias : t -> Alias_cov.t
val branch : t -> Branch_cov.t
val report : t -> Report.t
val provenance : t -> (int, provenance) Hashtbl.t

val timeline : t -> timeline_point list
(** The coverage timeline ordered by campaign index (chronological for a
    sequential session). *)
