(* The shared side of the §5 worker pool, behind a domain-safe facade.

   PMRace runs 13 worker processes that share a coverage bitmap and a seed
   pool; our workers are OCaml 5 domains that share this hub.  The hub owns
   every piece of cross-worker state — alias/branch coverage, the
   shared-access priority queue, the report (with its candidate tables),
   reproduction provenance, the coverage timeline, and the campaign budget
   — and serialises all access with one mutex.

   The locking protocol keeps the fuzzing hot path lock-free: a worker
   never touches hub state while a campaign executes.  Instead it

   - [reserve]s a campaign slot (one short critical section),
   - runs the campaign against a private [delta] (fresh per-campaign
     coverage/queue structures, no locks),
   - [commit]s the delta at the campaign boundary (the second critical
     section: merge coverage, absorb findings, extend the timeline).

   Because every merge is a set-union/counter-add and the report
   deduplicates by bug identity, the final hub state for a given set of
   campaigns is independent of commit order — parallel sessions are
   deterministic as a set of unique bugs, and a single worker reproduces
   the sequential fuzzer bit for bit. *)

type provenance = {
  p_seed : Seed.t;
  p_sched_seed : int;
  p_policy : string; (* human-readable label for reports *)
  p_spec : Campaign.policy_spec; (* the machine-replayable policy itself *)
}

type timeline_point = {
  tp_campaign : int;
  tp_time : float; (* seconds since session start *)
  tp_alias_bits : int;
  tp_branch_bits : int;
  tp_inter_unique : int;
  tp_new_inter : bool;
}

let timeline_point_codec =
  Obs.Codec.(
    obj
      (record
         (fun tp_campaign tp_time tp_alias_bits tp_branch_bits tp_inter_unique tp_new_inter ->
           { tp_campaign; tp_time; tp_alias_bits; tp_branch_bits; tp_inter_unique; tp_new_inter })
      |+ field "campaign" int (fun p -> p.tp_campaign)
      |+ field "time" float (fun p -> p.tp_time)
      |+ field "alias_bits" int (fun p -> p.tp_alias_bits)
      |+ field "branch_bits" int (fun p -> p.tp_branch_bits)
      |+ field "inter_unique" int (fun p -> p.tp_inter_unique)
      |+ field "new_inter" bool (fun p -> p.tp_new_inter)))

(* A worker's private per-campaign accumulator.  Campaign listeners write
   here without synchronisation; [commit] folds it into the shared state.
   Persistent-mode workers keep one delta per worker (with its alias
   tracker) and [reset_delta] it between campaigns instead of allocating
   fresh structures. *)
type delta = {
  d_alias : Alias_cov.t;
  d_branch : Branch_cov.t;
  d_queue : Shared_queue.t;
  d_tracker : Alias_cov.tracker;
}

type por_totals = {
  pt_campaigns : int;  (* campaigns run under POR *)
  pt_pruned : int;  (* sleep-set-suppressed picks, summed *)
  pt_forced_wakes : int;
  pt_unique_traces : int;  (* first sightings of a (trace, seed) class *)
  pt_dup_traces : int;  (* campaigns whose validation was skipped as redundant *)
}

let por_totals_codec =
  Obs.Codec.(
    obj
      (record (fun pt_campaigns pt_pruned pt_forced_wakes pt_unique_traces pt_dup_traces ->
           { pt_campaigns; pt_pruned; pt_forced_wakes; pt_unique_traces; pt_dup_traces })
      |+ field "campaigns" int (fun p -> p.pt_campaigns)
      |+ field "schedules_pruned" int (fun p -> p.pt_pruned)
      |+ field "forced_wakes" int (fun p -> p.pt_forced_wakes)
      |+ field "unique_traces" int (fun p -> p.pt_unique_traces)
      |+ field "dup_traces" int (fun p -> p.pt_dup_traces)))

type t = {
  lock : Mutex.t;
  max_campaigns : int;
  alias : Alias_cov.t;
  branch : Branch_cov.t;
  queue : Shared_queue.t;
  report : Report.t;
  static : Analysis.Alias_pairs.t option;
  provenance : (int, provenance) Hashtbl.t; (* campaign index -> inputs *)
  mutable reserved : int; (* campaign slots handed out *)
  mutable completed : int; (* campaigns committed *)
  mutable timeline : timeline_point list; (* commit order, newest first *)
  started : float;
  (* POR bookkeeping (all under [lock]).  [trace_seen] is keyed by the
     campaign's canonical trace hash XOR the seed fingerprint — without
     the seed salt, a hash collision across *different* seeds would
     silently suppress validation of a genuinely new finding. *)
  trace_seen : (int64, unit) Hashtbl.t;
  trace_hashes : (int, int64) Hashtbl.t; (* campaign index -> raw trace hash *)
  mutable por_campaigns : int;
  mutable por_pruned : int;
  mutable por_forced_wakes : int;
  mutable por_dup_traces : int;
}

(* Monotonic: session wall time and the timeline feed rate figures
   (execs/sec, Figure 8 time axes) that must never see the wall clock
   step backwards. *)
let now () = Obs.Clock.now ()

let create ?static ~max_campaigns () =
  {
    lock = Mutex.create ();
    max_campaigns;
    alias = Alias_cov.create ();
    branch = Branch_cov.create ();
    queue = Shared_queue.create ();
    report = Report.create ();
    static;
    provenance = Hashtbl.create 64;
    reserved = 0;
    completed = 0;
    timeline = [];
    started = now ();
    trace_seen = Hashtbl.create 256;
    trace_hashes = Hashtbl.create 256;
    por_campaigns = 0;
    por_pruned = 0;
    por_forced_wakes = 0;
    por_dup_traces = 0;
  }

(* Workers contend on this one mutex at campaign boundaries; the wait
   histogram is the §5 scaling diagnostic (a growing p95 here means the
   hub's critical sections are the bottleneck, not the campaigns). *)
let m_lock_wait =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]
       "hub_lock_wait_seconds")

let with_lock t f =
  if Obs.Metrics.enabled () then begin
    let t0 = Obs.Clock.now () in
    Mutex.lock t.lock;
    Obs.Metrics.observe (Lazy.force m_lock_wait) (Obs.Clock.elapsed t0)
  end
  else Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Advisory, lock-free check workers use in loop conditions; [reserve] is
   the authoritative check-and-claim. *)
let budget_left t = t.reserved < t.max_campaigns

let reserve t prov =
  with_lock t (fun () ->
      if t.reserved >= t.max_campaigns then None
      else begin
        let campaign = t.reserved in
        t.reserved <- t.reserved + 1;
        Hashtbl.replace t.provenance campaign prov;
        Some campaign
      end)

let fresh_delta () =
  {
    d_alias = Alias_cov.create ();
    d_branch = Branch_cov.create ();
    d_queue = Shared_queue.create ();
    d_tracker = Alias_cov.tracker ();
  }

(* The delta's event handlers, for a worker's pre-bound listener array.
   The alias handler uses the delta's own tracker, so [reset_delta] must
   run between campaigns. *)
let delta_handlers d =
  [
    Alias_cov.handler d.d_alias d.d_tracker;
    Branch_cov.handler d.d_branch;
    Shared_queue.handler d.d_queue;
  ]

(* Empty a delta for reuse: equivalent to [fresh_delta] for every observable
   purpose (all structures are emptied, including the alias tracker). *)
let reset_delta d =
  Alias_cov.clear d.d_alias;
  Branch_cov.clear d.d_branch;
  Shared_queue.clear d.d_queue;
  Alias_cov.reset_tracker d.d_tracker

(* Accumulate one delta into another (set unions / counter additions, like
   the shared-side merge).  Fleet workers keep a second "wire" delta that
   every campaign delta is folded into before its reset; the wire delta is
   what travels to the coordinator.  The tracker is per-execution scratch
   and is not merged.  A delta decoded from a peer or a file may carry a
   bitmap of another size: sizes are checked first, so it is refused
   whole. *)
let merge_delta_into ~src ~dst =
  let n = Alias_cov.size src.d_alias and m = Alias_cov.size dst.d_alias in
  if n <> m then Error (Printf.sprintf "alias bitmap has %d bits, expected %d" n m)
  else begin
    Alias_cov.merge_into ~src:src.d_alias dst.d_alias;
    Branch_cov.merge_into ~src:src.d_branch dst.d_branch;
    Shared_queue.merge_into ~src:src.d_queue dst.d_queue;
    Ok ()
  end

(* Wire/store codec for a delta: the three coverage structures, each via
   its own (site-name based, process-independent) codec. *)
let delta_codec =
  Obs.Codec.(
    obj
      (record (fun d_alias d_branch d_queue ->
           { d_alias; d_branch; d_queue; d_tracker = Alias_cov.tracker () })
      |+ field "alias" Alias_cov.codec (fun d -> d.d_alias)
      |+ field "branch" Branch_cov.codec (fun d -> d.d_branch)
      |+ field "queue" Shared_queue.codec (fun d -> d.d_queue)))

let delta_to_json = Obs.Codec.encode delta_codec
let delta_of_json = Obs.Codec.decode delta_codec

type trace = {
  tr_key : int64; (* trace hash salted with the seed fingerprint *)
  tr_hash : int64; (* raw trace hash, kept per campaign for provenance *)
  tr_pruned : int;
  tr_forced : int;
}

type commit_result = {
  c_improved : bool; (* the merge contributed new coverage bits *)
  c_new : Report.finding list; (* first sightings: inconsistencies, then sync *)
  c_new_pairs : (int * int) list; (* newly achieved (write, read) site pairs *)
  c_alias_bits : int; (* shared coverage after this merge *)
  c_branch_bits : int;
  c_first_trace : bool; (* first sighting of the trace class (or no trace) *)
}

(* Time actually spent merging inside the critical section (the lock-wait
   histogram above measures contention; this measures the work).  Third
   phase of the campaign timing split: setup / run / hub merge. *)
let m_merge = lazy (Obs.Metrics.histogram "hub_merge_seconds")

let commit t ?trace ~campaign ~delta (env : Runtime.Env.t) ~hung ~hang_info =
  with_lock t (fun () ->
      Obs.Metrics.time (Lazy.force m_merge) @@ fun () ->
      (* POR trace accounting rides the commit critical section: one lock
         acquisition per campaign boundary, not two.  [c_first_trace]
         decides (outside the lock) whether the worker spends
         post-failure validation — a duplicate trace cannot produce a
         finding its first representative didn't.  The key is salted
         with the seed fingerprint upstream, so a cross-seed hash
         collision never suppresses validation of a new finding. *)
      let c_first_trace =
        match trace with
        | None -> true
        | Some tr ->
            Hashtbl.replace t.trace_hashes campaign tr.tr_hash;
            t.por_campaigns <- t.por_campaigns + 1;
            t.por_pruned <- t.por_pruned + tr.tr_pruned;
            t.por_forced_wakes <- t.por_forced_wakes + tr.tr_forced;
            if Hashtbl.mem t.trace_seen tr.tr_key then begin
              t.por_dup_traces <- t.por_dup_traces + 1;
              false
            end
            else begin
              Hashtbl.replace t.trace_seen tr.tr_key ();
              true
            end
      in
      let before = Alias_cov.count t.alias + Branch_cov.count t.branch in
      (* O(delta): the delta's pairs the shared map lacks before the
         merge are exactly the ones the merge adds. *)
      let c_new_pairs = Alias_cov.fresh_pairs ~src:delta.d_alias t.alias in
      Alias_cov.merge_into ~src:delta.d_alias t.alias;
      Branch_cov.merge_into ~src:delta.d_branch t.branch;
      Shared_queue.merge_into ~src:delta.d_queue t.queue;
      let c_new = Report.absorb ~campaign t.report env ~hung ~hang_info in
      t.completed <- t.completed + 1;
      let c_alias_bits = Alias_cov.count t.alias and c_branch_bits = Branch_cov.count t.branch in
      t.timeline <-
        {
          tp_campaign = campaign + 1;
          tp_time = now () -. t.started;
          tp_alias_bits = c_alias_bits;
          tp_branch_bits = c_branch_bits;
          tp_inter_unique = Report.inconsistency_count t.report Runtime.Candidates.Inter;
          tp_new_inter = List.exists (fun f -> Report.kind f = `Inter) c_new;
        }
        :: t.timeline;
      let after = c_alias_bits + c_branch_bits in
      {
        c_improved = after > before;
        c_new;
        c_new_pairs;
        c_alias_bits;
        c_branch_bits;
        c_first_trace;
      })

let por_totals t =
  if t.por_campaigns = 0 then None
  else
    Some
      {
        pt_campaigns = t.por_campaigns;
        pt_pruned = t.por_pruned;
        pt_forced_wakes = t.por_forced_wakes;
        pt_unique_traces = Hashtbl.length t.trace_seen;
        pt_dup_traces = t.por_dup_traces;
      }

let trace_hash t ~campaign = Hashtbl.find_opt t.trace_hashes campaign
let trace_hashes t = t.trace_hashes

(* First sighting of an invariant violation across all workers; the
   returned finding (if new) is validated by the discovering worker
   outside the lock, like dynamic findings. *)
let record_invariant t ~campaign hit =
  with_lock t (fun () -> Report.record_invariant ~campaign t.report hit)

let queue_entries t = with_lock t (fun () -> Shared_queue.entries t.queue)

(* Re-score a seed against the static pre-pass: first refresh the
   achieved-pair marks from shared alias coverage, then count the
   still-uncovered statically-possible pairs whose write and read sites
   the seed has reached ([sites] is the owning worker's private map of
   sites this seed touched). *)
let rescore_seed t ~sites seed =
  match t.static with
  | None -> ()
  | Some pairs ->
      with_lock t (fun () ->
          List.iter
            (fun (w, r) ->
              Analysis.Alias_pairs.mark_achieved pairs ~write:(Runtime.Instr.of_int w)
                ~read:(Runtime.Instr.of_int r))
            (Alias_cov.site_pairs t.alias);
          let score =
            List.fold_left
              (fun n (p : Analysis.Alias_pairs.pair) ->
                if
                  Site_set.mem sites (Runtime.Instr.to_int p.Analysis.Alias_pairs.pw)
                  && Site_set.mem sites (Runtime.Instr.to_int p.Analysis.Alias_pairs.pr)
                then n + 1
                else n)
              0
              (Analysis.Alias_pairs.uncovered pairs)
          in
          Seed.set_priority seed score)

let completed t = t.completed
let elapsed t = now () -. t.started
let static t = t.static

(* Accessors for session assembly and pre-spawn setup.  Unsynchronised:
   only use while no worker domain is live (before spawning or after
   joining). *)
let alias t = t.alias
let branch t = t.branch
let report t = t.report
let provenance t = t.provenance

let timeline t =
  (* Commit order is chronological for a single worker; under parallelism
     ties in commit order are broken by campaign index so the series is
     reproducible. *)
  List.sort (fun a b -> compare a.tp_campaign b.tp_campaign) (List.rev t.timeline)
