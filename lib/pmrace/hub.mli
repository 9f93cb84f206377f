(** The shared side of the §5 worker pool, behind a domain-safe facade.

    Fuzzing workers run on OCaml 5 domains and share this hub the way
    PMRace's 13 worker processes share a coverage bitmap: all cross-worker
    state — alias/branch coverage, the shared-access priority queue, the
    report and its candidate tables, provenance, the timeline, and the
    campaign budget — lives here, serialised by one mutex.

    The protocol keeps campaign execution lock-free: workers {!reserve} a
    budget slot, run the campaign against a private {!delta}, and
    {!commit} the delta at the campaign boundary.  Merges are set unions
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

type delta
(** A worker's private per-campaign coverage/queue accumulator; campaign
    listeners write to it without synchronisation. *)

type t

val create : ?static:Analysis.Alias_pairs.t -> max_campaigns:int -> unit -> t

val budget_left : t -> bool
(** Advisory lock-free check for worker loop conditions; {!reserve} is the
    authoritative check-and-claim, so the budget is never overshot. *)

val reserve : t -> provenance -> int option
(** Claim the next campaign slot and record its provenance; [None] when
    the budget is exhausted (the worker should wind down). *)

val fresh_delta : unit -> delta

val delta_handlers : delta -> (Runtime.Env.event -> unit) list
(** The delta's raw event handlers, for installation in a worker's
    pre-bound listener array ({!Runtime.Env.install_bound}).  The alias
    handler shares the delta's tracker, so call {!reset_delta} between
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

type trace = {
  tr_key : int64;
      (** the campaign's trace hash salted with the seed fingerprint, so
          cross-seed hash collisions cannot suppress a genuinely new
          finding *)
  tr_hash : int64;  (** raw trace hash, kept per campaign for provenance *)
  tr_pruned : int;  (** sleep-set-suppressed picks this campaign *)
  tr_forced : int;  (** forced wakes this campaign *)
}
(** One POR campaign's Mazurkiewicz-trace class and pruning provenance,
    registered at {!commit}. *)

type commit_result = {
  c_improved : bool;  (** the merge contributed new coverage bits *)
  c_new : Report.finding list;
      (** the campaign's first sightings: inconsistencies, then sync
          events *)
  c_new_pairs : (int * int) list;
      (** (write, read) site pairs first achieved by this merge, as raw
          instruction ids, sorted — the fuzzer turns them into
          [new_alias_pair] events.  Derived from the delta alone
          ({!Alias_cov.fresh_pairs}): O(delta), not O(shared map). *)
  c_alias_bits : int;  (** shared coverage after this merge *)
  c_branch_bits : int;
  c_first_trace : bool;
      (** first sighting of [trace]'s class — only then should the worker
          spend post-failure validation.  Always [true] when the commit
          carried no trace (non-POR campaigns). *)
}

val commit :
  t ->
  ?trace:trace ->
  campaign:int ->
  delta:delta ->
  Runtime.Env.t ->
  hung:bool ->
  hang_info:string ->
  commit_result
(** The campaign-boundary merge: fold the delta into shared coverage,
    absorb the campaign's checker results into the report, extend the
    timeline — and, when the campaign ran under POR, register its trace
    class and pruning counters in the same critical section (one lock
    acquisition per campaign boundary, not two).  The returned new
    findings are then validated by the caller outside the lock, gated on
    [c_first_trace]. *)

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

val trace_hash : t -> campaign:int -> int64 option
(** The campaign's canonical trace hash, when it ran under POR.
    Single-domain accessor. *)

val trace_hashes : t -> (int, int64) Hashtbl.t
(** All recorded trace hashes by campaign index, for artifact assembly.
    Single-domain accessor. *)

val record_invariant : t -> campaign:int -> Inv_monitor.hit -> Report.finding option
(** Record a mined-invariant violation (locked); returns the finding only
    on the first sighting of the label across all workers — the
    discovering worker then validates it outside the lock. *)

val queue_entries : t -> Shared_queue.entry list
(** Snapshot of the shared-access priority queue (locked). *)

val rescore_seed : t -> sites:Site_set.t -> Seed.t -> unit
(** Static-pre-pass seed re-scoring (no-op without a pre-pass): refresh
    achieved alias-pair marks from shared coverage and set the seed's
    priority to the number of uncovered possible pairs it touches.
    [sites] is the owning worker's private touched-site set. *)

val completed : t -> int
(** Campaigns committed so far. *)

val elapsed : t -> float
val static : t -> Analysis.Alias_pairs.t option

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
