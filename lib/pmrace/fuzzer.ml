(* The PM-aware coverage-guided fuzzing loop (§4.2.3).

   Three tiers of exploration:
   - Execution tier: re-run the same (seed, interleaving) with different
     scheduler seeds; non-determinism alone uncovers some interleavings.
   - Interleaving tier: pick the next unexplored entry from the
     shared-access priority queue and drive the execution towards reading
     non-persisted data with the sync-point policy.
   - Seed tier: when interleavings stop improving coverage, evolve the
     corpus with the operation mutator (or the populate fallback) and
     rebuild the priority queue.

   Feedback is the sum of PM alias pair coverage and branch coverage.
   Every newly discovered unique inconsistency is validated post-failure
   immediately, so the session report carries verdicts.

   The worker pool (§5) is a set of OCaml 5 domains.  All shared state
   lives in a {!Hub}; each worker owns everything else — its RNGs, its
   corpus and generation counter, and its campaign scratch tables — so a
   campaign executes without synchronisation and workers only meet at the
   hub's two short critical sections per campaign (reserve and commit)
   and at the interleaving tier's queue reads.  With
   [workers = 1] the single worker follows exactly the sequential
   fuzzer's code path and RNG streams, so seeded paper-profile sessions
   stay bit-identical. *)

module Rng = Sched.Rng

type mode = Mode_pmrace | Mode_delay | Mode_random

(* Campaigns per interleaving (the execution tier), queue entries tried
   per seed (the interleaving tier), and the random operation seeds each
   worker's initial corpus holds besides its populate seed. *)
let execs_per_interleaving = 3
let max_interleavings_per_seed = 8
let initial_seeds = 2

(* OCaml 5.1 runs at most 128 domains, the main domain included
   ([Max_domains]); a session with more than one worker spawns one
   domain per worker. *)
let max_workers = 127

type config = {
  max_campaigns : int;
  master_seed : int;
  mode : mode;
  interleaving_tier : bool; (* false = the "w/o IE" ablation of Fig. 9 *)
  seed_tier : bool; (* false = the "w/o SE" ablation of Fig. 9 *)
  use_checkpoint : bool;
  validate : bool;
  eadr : bool; (* fuzz on an eADR platform (§6.6) *)
  workers : int; (* worker domains sharing the hub (§5) *)
  static_prepass : bool;
      (* run the offline analyzer first (the LLVM pre-pass analogue): its
         site graph bounds alias coverage (achieved/possible) and seeds
         touching uncovered possible pairs are preferred as parents *)
  invariants : bool;
      (* mine likely persistence-ordering invariants in the pre-pass and
         monitor campaigns for violations (validated post-failure like any
         candidate); off by default so seeded sessions stay bit-identical *)
  corpus_sched : bool;
      (* AFL-style corpus scheduling ({!Corpus_sched}): mutation parents
         are leased from the favored cover of the achieved alias-pair set
         instead of drawn uniformly; off by default so seeded sessions
         stay bit-identical *)
  crash_images : int;
      (* post-failure crash-image budget: how many enumerated crash
         images each candidate is validated against ({!Pmem.Crash_images});
         1 = base image only, the historical behaviour *)
  por : bool;
      (* partial-order reduction: campaigns run under the scheduler's
         sleep sets ({!Sched.Scheduler.run} with POR hooks) and post-failure
         validation is skipped for campaigns whose Mazurkiewicz-trace
         hash was already seen for the same seed; off by default so
         seeded sessions stay bit-identical *)
}

let default_config =
  {
    max_campaigns = 120;
    master_seed = 42;
    mode = Mode_pmrace;
    interleaving_tier = true;
    seed_tier = true;
    use_checkpoint = true;
    validate = true;
    eadr = false;
    workers = 1;
    static_prepass = false;
    invariants = false;
    corpus_sched = false;
    crash_images = 1;
    por = false;
  }

(* The configuration front door: an optional-argument builder over
   [default_config].  Callers name only what they change, so adding a
   config field never breaks them again (the raw record construction in
   pre-obs callers did, on every field addition). *)
module Config = struct
  type t = config

  let default = default_config

  let make ?(max_campaigns = default_config.max_campaigns)
      ?(master_seed = default_config.master_seed) ?(mode = default_config.mode)
      ?(interleaving_tier = default_config.interleaving_tier)
      ?(seed_tier = default_config.seed_tier) ?(use_checkpoint = default_config.use_checkpoint)
      ?(validate = default_config.validate) ?(eadr = default_config.eadr)
      ?(workers = default_config.workers) ?(static_prepass = default_config.static_prepass)
      ?(invariants = default_config.invariants) ?(corpus_sched = default_config.corpus_sched)
      ?(crash_images = default_config.crash_images) ?(por = default_config.por) () =
    {
      max_campaigns;
      master_seed;
      mode;
      interleaving_tier;
      seed_tier;
      use_checkpoint;
      validate;
      eadr;
      workers = max 1 workers;
      static_prepass;
      invariants;
      corpus_sched;
      crash_images = max 1 crash_images;
      por;
    }
end

(* A setting this build fixes, kept in the artifact for its readers:
   written as [value], and decoded only when the artifact recorded that
   same value — a session run under another one would not replay. *)
let fixed c value =
  let show v = Obs.Json.to_string ~minify:true (Obs.Codec.encode c v) in
  Obs.Codec.conv
    (fun v ->
      if v = value then Ok ()
      else Error (Printf.sprintf "recorded %s; this build runs %s" (show v) (show value)))
    (fun () -> value)
    c

(* The artifact's "config" object.  Fields added after v1 default to the
   value that reproduces the older sessions' behaviour. *)
let config_codec =
  let open Obs.Codec in
  obj
    (record
       (fun max_campaigns () () master_seed mode interleaving_tier seed_tier use_checkpoint ()
            validate () eadr workers () () static_prepass invariants corpus_sched crash_images por ->
         Config.make ~max_campaigns ~master_seed ~mode ~interleaving_tier ~seed_tier
           ~use_checkpoint ~validate ~eadr ~workers ~static_prepass ~invariants ~corpus_sched
           ~crash_images ~por ())
    |+ field "max_campaigns" int (fun c -> c.max_campaigns)
    |+ field "execs_per_interleaving" (fixed int execs_per_interleaving) ignore
    |+ field "max_interleavings_per_seed" (fixed int max_interleavings_per_seed) ignore
    |+ field "master_seed" int (fun c -> c.master_seed)
    |+ field "mode"
         (enum [ ("pmrace", Mode_pmrace); ("delay", Mode_delay); ("random", Mode_random) ])
         (fun c -> c.mode)
    |+ field "interleaving_tier" bool (fun c -> c.interleaving_tier)
    |+ field "seed_tier" bool (fun c -> c.seed_tier)
    |+ field "use_checkpoint" bool (fun c -> c.use_checkpoint)
    |+ field "step_budget" (fixed int Campaign.default_step_budget) ignore
    |+ field "validate" bool (fun c -> c.validate)
    |+ field "evict_prob" (fixed float 0.) ignore
    |+ field "eadr" bool (fun c -> c.eadr)
    |+ field "workers" int (fun c -> c.workers)
    |+ field "initial_seeds" (fixed int initial_seeds) ignore
    |+ field "whitelist_extra" (fixed (list string) []) ignore
    |+ field "static_prepass" bool (fun c -> c.static_prepass)
    |+ field ~default:false "invariants" bool (fun c -> c.invariants)
    |+ field ~default:false "corpus_sched" bool (fun c -> c.corpus_sched)
    |+ field ~default:1 "crash_images" int (fun c -> c.crash_images)
    |+ field ~default:false "por" bool (fun c -> c.por))

type provenance = Hub.provenance = {
  p_seed : Seed.t;
  p_sched_seed : int;
  p_policy : string;
  p_spec : Campaign.policy_spec;
  p_trace : int64 option;
}

type timeline_point = Hub.timeline_point = {
  tp_campaign : int;
  tp_time : float; (* seconds since session start *)
  tp_alias_bits : int;
  tp_branch_bits : int;
  tp_inter_unique : int;
  tp_new_inter : bool;
}

type session = {
  report : Report.t;
  alias : Alias_cov.t;
  branch : Branch_cov.t;
  timeline : timeline_point list; (* chronological *)
  campaigns_run : int;
  wall_time : float;
  annotations : int;
  whitelist : Whitelist.t;
  provenance : (int, provenance) Hashtbl.t; (* campaign index -> inputs *)
  static : Analysis.Analyzer.result option; (* the pre-pass, when enabled *)
  worker_campaigns : int array; (* campaigns completed per worker (index = widx) *)
  por : Hub.por_totals option; (* aggregate pruning counters, POR sessions only *)
}

(* The worker's budget and commit path, as a record of functions.  The
   in-process pool binds it to a {!Hub} ([hub_sink] — pure indirection, so
   [workers = 1] sessions stay bit-identical to the sequential fuzzer);
   fleet workers bind it to a wrapper that enforces the coordinator's
   lease budget and accumulates a wire delta.  Everything a campaign adds
   to the session enters through [sk_commit]; the worker only reads the
   queue and the progress count on the set-up's hub directly. *)
type sink = {
  sk_budget_left : unit -> bool;
  sk_reserve : Hub.provenance -> int option;
  sk_commit :
    campaign:int ->
    seed:Seed.t ->
    delta:Hub.delta ->
    ?sites:Site_set.t ->
    invariants:Inv_monitor.hit list ->
    Campaign.result ->
    Hub.commit_result;
}

(* The in-process binding: forward every operation to the hub verbatim. *)
let hub_sink hub =
  {
    sk_budget_left = (fun () -> Hub.budget_left hub);
    sk_reserve = Hub.reserve hub;
    sk_commit = Hub.commit hub;
  }

(* A fuzzing worker: one domain's private half of the state split.  Two
   RNG streams — [sched_rng] draws campaign scheduler seeds (worker 0
   continues the sequential fuzzer's session stream) and [gen_rng] drives
   seed generation/mutation — plus the corpus and the campaign scratch
   tables.  Nothing here is ever touched by another domain. *)
type worker = {
  widx : int;
  cfg : config;
  target : Target.t;
  sink : sink;
  hub : Hub.t; (* the set-up's hub: queue reads and the progress count *)
  sched_rng : Rng.t;
  gen_rng : Rng.t;
  mutable corpus : Seed.t list;
  csched : Corpus_sched.t option; (* [corpus_sched]: the favored-cover scheduler *)
  mutable generation : int;
  skip_store : (int * int, int) Hashtbl.t; (* (seed id, addr) -> skip *)
  (* per-address exploration state: number of attempts, negative once the
     sync point actually triggered.  Spans this worker's seed generations
     so successive generations progress down the priority queue; cleared
     when exhausted. *)
  explored : (int, int) Hashtbl.t;
  seed_sites : (int, Site_set.t) Hashtbl.t; (* seed id -> sites touched *)
  (* Every first sighting this worker's commits returned, in the
     checker's two identities; the engine captures a crash surface only
     for a finding outside them. *)
  known_inc : unit Runtime.Candidates.Tbl.t; (* by [Checkers.inc_key] *)
  known_sync : (string * int64, unit) Hashtbl.t; (* variable, value *)
  engine : Engine.t; (* this worker's reusable execution context *)
  delta : Hub.delta; (* reused across campaigns; reset at campaign start *)
  (* Which per-seed site table the pre-bound recorder writes to;
     retargeted by [do_campaign] instead of attaching a fresh closure. *)
  cur_sites : Site_set.t ref;
  whitelist : Whitelist.t; (* shared, read-only during fuzzing *)
  vctx : Post_failure.ctx; (* validation context: whitelist + image budget *)
  inv_mon : Inv_monitor.t option; (* mined-invariant violation monitor *)
  static_on : bool;
  log : string -> unit;
  obs : Obs.Events.t option; (* structured event stream, when a sink listens *)
  mutable my_campaigns : int; (* campaigns this worker completed *)
}

let emit w payload = match w.obs with Some o -> Obs.Events.emit o payload | None -> ()

(* A first sighting, as a [candidate_found] event. *)
let emit_found w ~campaign f =
  if w.obs <> None then
    emit w
      (Obs.Events.Candidate_found
         {
           campaign;
           worker = w.widx;
           kind = Report.kind_slug (Report.kind f);
           write_site = Report.site f;
           read_site = Report.read_site f;
         })

(* Validate a first sighting post-failure and emit its verdict.  A bug
   that only reproduced on a non-default enumerated crash image gets a
   second event: it is exactly the detection the image budget bought. *)
let validate_finding w ~campaign f =
  let v = Report.validate w.vctx f in
  if w.obs <> None then begin
    let kind = Report.kind_slug (Report.kind f) and site = Report.site f in
    emit w
      (Obs.Events.Validation_verdict
         { campaign; worker = w.widx; kind; site; verdict = Post_failure.verdict_slug v });
    match v with
    | Post_failure.Bug { image_index; _ } when image_index > 0 ->
        emit w
          (Obs.Events.Crash_image_bug { campaign; worker = w.widx; kind; site; image_index })
    | Post_failure.Bug _ | Post_failure.Validated_fp | Post_failure.Whitelisted_fp -> ()
  end

let site_name id = Runtime.Instr.name (Runtime.Instr.of_int id)

(* Add a first sighting to the worker's known findings. *)
let learn w (f : Report.finding) =
  match f.subject with
  | Report.Inconsistency inc ->
      Runtime.Candidates.Tbl.replace w.known_inc
        (Runtime.Checkers.inc_key inc.source inc.eff_instr)
        ()
  | Report.Sync ev -> Hashtbl.replace w.known_sync (ev.var.sv_name, ev.sy_value) ()
  | Report.Invariant _ -> ()

let policy_label = function
  | Campaign.Pmrace { entry; _ } ->
      Printf.sprintf "PM-aware sync point @ addr %d" entry.Shared_queue.addr
  | Campaign.Delay _ -> "random delay injection"
  | Campaign.Random_sched -> "random scheduling"
  | Campaign.No_preempt -> "no preemption"

(* The per-seed touched-site table (for scoring against the pre-pass's
   uncovered possible pairs), created on first use. *)
let sites_of w seed =
  match Hashtbl.find_opt w.seed_sites (Seed.id seed) with
  | Some s -> s
  | None ->
      let s = Site_set.create () in
      Hashtbl.add w.seed_sites (Seed.id seed) s;
      s

(* Run one campaign: reserve a budget slot, execute against a private
   delta (lock-free), commit the result at the boundary, then validate any
   new findings outside the hub lock.  Returns [None] when the shared
   budget ran out before this campaign could start. *)
let do_campaign w seed policy =
  let sched_seed = Rng.int w.sched_rng 1_000_000_000 in
  match
    w.sink.sk_reserve
      {
        p_seed = seed;
        p_sched_seed = sched_seed;
        p_policy = policy_label policy;
        p_spec = policy;
        p_trace = None;
      }
  with
  | None -> None
  | Some campaign ->
      let t0 = if w.obs = None then 0. else Obs.Clock.now () in
      emit w
        (Obs.Events.Campaign_start
           {
             campaign;
             worker = w.widx;
             seed_id = Seed.id seed;
             sched_seed;
             policy = policy_label policy;
           });
      let input = Campaign.input ~sched_seed ~policy ~por:w.cfg.por w.target seed in
      (* The recorder is pre-bound in the engine's context; per campaign
         we only empty the delta and retarget the recorder's seed-site
         table at this seed's. *)
      Hub.reset_delta w.delta;
      if w.static_on then w.cur_sites := sites_of w seed;
      let result =
        match w.inv_mon with
        | None -> Campaign.run ~engine:w.engine input
        | Some m -> Campaign.run ~engine:w.engine ~listeners:[ Inv_monitor.attach m ] input
      in
      (* One commit carries everything the campaign adds to the session:
         coverage, findings, the drained invariant hits, the POR trace
         class (validation is spent only on a (trace, seed) class's first
         sighting — a Mazurkiewicz-equivalent schedule cannot produce a
         finding its representative didn't) and, with the static
         pre-pass, the seed's re-score against the sites it touched. *)
      let invariants = match w.inv_mon with None -> [] | Some m -> Inv_monitor.drain m in
      let sites = if w.static_on then Some !(w.cur_sites) else None in
      let c = w.sink.sk_commit ~campaign ~seed ~delta:w.delta ?sites ~invariants result in
      (* Every first sighting is known from now on, a duplicate trace's
         too: none of them will be validated again. *)
      List.iter (learn w) c.Hub.c_new;
      (* Corpus scheduling: credit this seed with the alias pairs its
         campaign was first to achieve — the currency [Corpus_sched.cull]
         scores by. *)
      (match w.csched with
      | Some cs when c.Hub.c_new_pairs <> [] ->
          Corpus_sched.credit_pairs cs (Seed.fingerprint seed)
            (List.map (fun (wr, rd) -> (site_name wr, site_name rd)) c.Hub.c_new_pairs)
      | Some _ | None -> ());
      if w.obs <> None then begin
        emit w
          (Obs.Events.Worker_merge
             {
               campaign;
               worker = w.widx;
               alias_bits = c.c_alias_bits;
               branch_bits = c.c_branch_bits;
             });
        List.iter
          (fun (wr, rd) ->
            emit w
              (Obs.Events.New_alias_pair
                 { campaign; worker = w.widx; write_site = site_name wr; read_site = site_name rd }))
          c.c_new_pairs;
        List.iter (emit_found w ~campaign) c.c_new
      end;
      if w.cfg.validate && c.Hub.c_first_trace then List.iter (validate_finding w ~campaign) c.c_new;
      (* Invariant first sightings are validated like any other candidate
         — whatever the campaign's trace. *)
      List.iter
        (fun f ->
          emit_found w ~campaign f;
          if w.cfg.validate then validate_finding w ~campaign f)
        c.c_new_invariants;
      w.my_campaigns <- w.my_campaigns + 1;
      emit w
        (Obs.Events.Campaign_end
           {
             campaign;
             worker = w.widx;
             improved = c.c_improved;
             hung = result.hung;
             latency = (if w.obs = None then 0. else Obs.Clock.elapsed t0);
           });
      Some (c.c_improved, result)

let budget_left w = w.sink.sk_budget_left ()

(* The execution tier: run [campaign] up to [runs] times while the budget
   lasts, giving up after [patience] runs in a row that improved no
   coverage.  [campaign] returns whether its run improved coverage, or
   [None] when the budget ran out before it could start. *)
let repeat w ~runs ~patience campaign =
  let rec go n stale =
    if n < runs && budget_left w && stale < patience then
      match campaign () with
      | None -> ()
      | Some improved -> go (n + 1) (if improved then 0 else stale + 1)
  in
  go 0 0

(* The execution tier alone, under a fixed policy: the w/o-IE ablation and
   the delay/random baselines. *)
let repeat_policy w ~patience seed policy =
  repeat w ~runs:(execs_per_interleaving * max_interleavings_per_seed) ~patience
    (fun () -> Option.map fst (do_campaign w seed policy))

(* The PM-aware schedule: recon run, then interleaving tier over queue
   entries, with the execution tier inside. *)
let fuzz_seed_pmrace w seed =
  if budget_left w then begin
    (* Recon execution: gathers shared accesses for the priority queue. *)
    ignore (do_campaign w seed Campaign.Random_sched);
    if w.cfg.interleaving_tier then begin
      (* Mutation energy (AFL): favored corpus entries earn a multiple of
         the per-seed interleaving budget.  Without corpus scheduling the
         factor is always 1, so seeded sessions stay bit-identical. *)
      let inter_budget =
        match w.csched with
        | Some cs -> max_interleavings_per_seed * Corpus_sched.energy cs seed
        | None -> max_interleavings_per_seed
      in
      let exhausted addr =
        match Hashtbl.find_opt w.explored addr with
        | Some n -> n < 0 || n >= 3 (* triggered, or tried repeatedly without success *)
        | None -> false
      in
      let unexplored () =
        Hub.queue_entries w.hub
        |> List.filter (fun (e : Shared_queue.entry) -> not (exhausted e.addr))
      in
      let entries =
        match unexplored () with
        | [] ->
            (* Every shared address has been tried: start a fresh sweep. *)
            Hashtbl.reset w.explored;
            unexplored ()
        | es -> es
      in
      let rec explore entries tried =
        match entries with
        | [] -> ()
        | _ when (not (budget_left w)) || tried >= inter_budget -> ()
        | (entry : Shared_queue.entry) :: rest ->
            let addr = entry.addr in
            let attempts = max 0 (Option.value ~default:0 (Hashtbl.find_opt w.explored addr)) in
            Hashtbl.replace w.explored addr (attempts + 1);
            repeat w ~runs:execs_per_interleaving ~patience:2 (fun () ->
                let key = (Seed.id seed, addr) in
                let skip = Option.value ~default:0 (Hashtbl.find_opt w.skip_store key) in
                Option.map
                  (fun (improved, (result : Campaign.result)) ->
                    (match result.sync with
                    | Some sync ->
                        Hashtbl.replace w.skip_store key (Sync_policy.next_skip sync ~previous:skip);
                        if Sync_policy.triggered sync then Hashtbl.replace w.explored addr (-1)
                    | None -> ());
                    improved)
                  (do_campaign w seed (Campaign.Pmrace { entry; skip })));
            explore rest (tried + 1)
      in
      explore entries 0
    end
    else (* w/o IE: only the execution tier — repeated random-schedule runs. *)
      repeat_policy w ~patience:4 seed Campaign.Random_sched
  end

(* Register a freshly created seed with the corpus scheduler (no-op when
   scheduling is off; duplicates dedup by fingerprint). *)
let register_seed w s =
  (match w.csched with Some cs -> ignore (Corpus_sched.add cs s) | None -> ());
  s

let next_seed w =
  if (not w.cfg.seed_tier) || w.corpus = [] then
    match w.corpus with
    | s :: _ -> s
    | [] ->
        let s = Seed.gen w.gen_rng w.target.Target.profile in
        w.corpus <- [ s ];
        register_seed w s
  else if w.generation > 0 && w.generation mod 5 = 4 then begin
    (* The populate fallback: a load phase with many inserts. *)
    let s = Mutator.populate w.gen_rng w.target.Target.profile ~factor:3 in
    w.corpus <- s :: w.corpus;
    register_seed w s
  end
  else begin
    (* Parent selection: with corpus scheduling, lease from the favored
       cover (recull first so new pair credit takes effect); when the
       static pre-pass is live, prefer seeds touching uncovered
       statically-possible alias pairs (highest priority wins, random
       among ties); otherwise uniform. *)
    let parent =
      match w.csched with
      | Some cs -> (
          Corpus_sched.cull cs;
          match Corpus_sched.lease cs 1 with
          | [ s ] -> s
          | _ -> Rng.pick w.gen_rng w.corpus)
      | None -> (
          let best =
            if not w.static_on then []
            else begin
              let top = List.fold_left (fun m s -> max m (Seed.priority s)) 0 w.corpus in
              if top = 0 then [] else List.filter (fun s -> Seed.priority s = top) w.corpus
            end
          in
          match best with [] -> Rng.pick w.gen_rng w.corpus | cs -> Rng.pick w.gen_rng cs)
    in
    let _, child = Mutator.evolve w.gen_rng w.target.Target.profile ~corpus:w.corpus parent in
    w.corpus <- child :: w.corpus;
    register_seed w child
  end

(* One worker's whole session: keep claiming seeds and fuzzing them until
   the shared budget drains.  This is the body of each spawned domain. *)
let worker_loop w =
  while budget_left w do
    let seed = if w.generation = 0 then List.hd w.corpus else next_seed w in
    w.log
      (Printf.sprintf "campaign %d/%d: worker %d seed #%d (gen %d)" (Hub.completed w.hub)
         w.cfg.max_campaigns w.widx (Seed.id seed) w.generation);
    (match w.cfg.mode with
    | Mode_pmrace -> fuzz_seed_pmrace w seed
    | Mode_delay -> repeat_policy w ~patience:6 seed (Campaign.Delay { prob = 0.08; max_delay = 25 })
    | Mode_random -> repeat_policy w ~patience:6 seed Campaign.Random_sched);
    w.generation <- w.generation + 1
  done

(* Session set-up, the one path shared by the in-process [run] and the
   fleet worker: the checkpoint, the static pre-pass, the hub with the
   pre-pass results installed, the whitelist and the mined invariant
   specs.  It is a pure function of (target, cfg), so every process of a
   fleet computes it identically. *)
type setup = {
  s_target : Target.t;
  s_cfg : config;
  s_checkpoint : Pmem.Pool.image option;
  s_prepass : Analysis.Analyzer.result option;
  s_hub : Hub.t;
  s_whitelist : Whitelist.t;
  s_inv_specs : Analysis.Invariants.spec list;
}

let setup ?(log = fun _ -> ()) target cfg =
  let checkpoint = if cfg.use_checkpoint then Some (Engine.checkpoint target) else None in
  (* Static pre-pass (the LLVM-pass analogue): bound the alias-pair
     coverage map and collect the lint findings before fuzzing starts.
     Pre-pass executions do not count against the campaign budget.  With a
     checkpoint they run on it, so the session initialises the target
     once. *)
  (* [invariants] rides on the pre-pass: mining needs its seed traces, so
     it forces one even when [static_prepass] is off — but the site-graph
     denominator and seed re-scoring stay gated on [static_prepass], so
     the invariant monitor alone never changes exploration. *)
  let prepass =
    if cfg.static_prepass || cfg.invariants then
      let analysis =
        if cfg.invariants then { Analysis.Analyzer.default_config with invariants = true }
        else Analysis.Analyzer.default_config
      in
      Some (Analyze.prepass ~analysis ?checkpoint target)
    else None
  in
  let static =
    if cfg.static_prepass then
      Option.map (fun (r : Analysis.Analyzer.result) -> r.r_pairs) prepass
    else None
  in
  let hub = Hub.create ?static ~max_campaigns:cfg.max_campaigns () in
  let whitelist = Whitelist.create target.Target.whitelist_sites in
  (match (prepass, cfg.static_prepass) with
  | Some r, true ->
      Alias_cov.set_possible (Hub.alias hub) (Analysis.Alias_pairs.possible_count r.r_pairs);
      Report.set_lint (Hub.report hub) r.r_findings;
      log
        (Printf.sprintf "static pre-pass: %d possible alias pairs, %d lint findings"
           (Analysis.Alias_pairs.possible_count r.r_pairs)
           (List.length r.r_findings))
  | _ -> ());
  let inv_specs =
    match prepass with
    | Some r when cfg.invariants -> r.Analysis.Analyzer.r_invariants
    | _ -> []
  in
  if cfg.invariants then begin
    Report.set_invariants (Hub.report hub) inv_specs;
    log (Printf.sprintf "invariant mining: %d likely invariants" (List.length inv_specs))
  end;
  {
    s_target = target;
    s_cfg = cfg;
    s_checkpoint = checkpoint;
    s_prepass = prepass;
    s_hub = hub;
    s_whitelist = whitelist;
    s_inv_specs = inv_specs;
  }

let setup_hub s = s.s_hub

(* Build one worker.  Its initial corpus is drawn from [gen_rng], so
   worker [widx]'s corpus is a pure function of (master_seed, widx) in any
   process.  Every worker of a session shares the set-up's checkpoint,
   whitelist and invariant specs. *)
let create_worker ?(log = fun _ -> ()) ?obs ?capture ~sink ~widx setup =
  let target = setup.s_target and cfg = setup.s_cfg in
  let static_on = cfg.static_prepass in
  let gen_rng = Rng.create (cfg.master_seed + (1_000_003 * widx)) in
  let delta = Hub.fresh_delta () in
  let cur_sites = ref (Site_set.create ()) in
  let whitelist = setup.s_whitelist in
  (* One populate (load-phase) seed plus random operation seeds: the load
     phase triggers resize/migration paths from the start. *)
  let corpus =
    Mutator.populate gen_rng target.Target.profile ~factor:3
    :: List.init initial_seeds (fun _ -> Seed.gen gen_rng target.Target.profile)
  in
  let csched =
    if not cfg.corpus_sched then None
    else begin
      let cs = Corpus_sched.create () in
      List.iter (fun s -> ignore (Corpus_sched.add cs s)) corpus;
      Some cs
    end
  in
  (* The worker's permanent listener array: one coverage recorder that
     feeds the delta and, with the pre-pass, the seed-site table, bound
     once instead of rebuilt per campaign. *)
  let bound = [| Hub.recorder delta ~sites:(if static_on then Some cur_sites else None) |] in
  (* A surface is read only by validation, and the worker validates only
     first sightings.  A finding the worker knows cannot be one; a
     finding another worker or fleet shard has already sighted may look
     unknown here, which only captures more. *)
  let known_inc = Runtime.Candidates.Tbl.create 64 and known_sync = Hashtbl.create 16 in
  let capture =
    match capture with
    | Some c -> c
    | None when not cfg.validate -> Runtime.Checkers.none
    | None ->
        {
          Runtime.Checkers.inc = (fun key -> not (Runtime.Candidates.Tbl.mem known_inc key));
          sync = (fun name v -> not (Hashtbl.mem known_sync (name, v)));
        }
  in
  {
    widx;
    cfg;
    target;
    sink;
    hub = setup.s_hub;
    sched_rng = Rng.create (cfg.master_seed + (500_000_003 * widx));
    gen_rng;
    corpus;
    csched;
    generation = 0;
    skip_store = Hashtbl.create 32;
    explored = Hashtbl.create 32;
    seed_sites = Hashtbl.create 32;
    known_inc;
    known_sync;
    engine =
      Engine.create ~capture ~eadr:cfg.eadr ~bound ?checkpoint:setup.s_checkpoint
        ~use_checkpoint:cfg.use_checkpoint target;
    delta;
    cur_sites;
    whitelist;
    vctx = Post_failure.ctx ~images:cfg.crash_images ~whitelist target;
    inv_mon =
      (if setup.s_inv_specs = [] then None
       else Some (Inv_monitor.create ~capture:cfg.validate setup.s_inv_specs));
    static_on;
    log;
    obs;
    my_campaigns = 0;
  }

(* Prepend fresh seeds (a fleet lease) to the worker's corpus.  They lead
   the list, so generation 0's [List.hd] picks the first leased seed. *)
let refresh_corpus w seeds =
  (match w.csched with
  | Some cs -> List.iter (fun s -> ignore (Corpus_sched.add cs s)) seeds
  | None -> ());
  if seeds <> [] then w.corpus <- seeds @ w.corpus

let campaigns_done w = w.my_campaigns

(* Session assembly from a drained hub — shared by the in-process [run]
   and the fleet worker's shard artifact. *)
let assemble_session ~worker_campaigns setup =
  let target = setup.s_target and hub = setup.s_hub in
  (* Annotation count comes from the target's layout annotations. *)
  let annotations =
    let env =
      Runtime.Env.create ~capture:Runtime.Checkers.none ~pool_words:target.Target.pool_words ()
    in
    target.Target.annotate env;
    Runtime.Checkers.annotation_count env.Runtime.Env.checkers
  in
  {
    report = Hub.report hub;
    alias = Hub.alias hub;
    branch = Hub.branch hub;
    timeline = Hub.timeline hub;
    campaigns_run = Hub.completed hub;
    wall_time = Hub.elapsed hub;
    annotations;
    whitelist = setup.s_whitelist;
    provenance = Hub.provenance hub;
    static = setup.s_prepass;
    worker_campaigns;
    por = Hub.por_totals hub;
  }

let run ?(log = fun _ -> ()) ?obs target cfg =
  if cfg.workers > max_workers then
    invalid_arg
      (Printf.sprintf "Fuzzer.run: %d workers; at most %d domains can run beside the main one"
         cfg.workers max_workers);
  (match obs with
  | Some o ->
      Obs.Events.emit o
        (Obs.Events.Session_start
           {
             target = target.Target.name;
             workers = max 1 cfg.workers;
             max_campaigns = cfg.max_campaigns;
             master_seed = cfg.master_seed;
           })
  | None -> ());
  let setup = setup ~log target cfg in
  (* Worker pool (§5): N domains share the hub's coverage, priority queue
     and report; each owns its RNG streams, corpus, and scratch tables, so
     campaigns do not contend.  Worker 0's streams are exactly the
     sequential fuzzer's, which keeps [workers = 1] sessions
     bit-identical to it. *)
  let log =
    let lk = Mutex.create () in
    fun m ->
      Mutex.lock lk;
      Fun.protect ~finally:(fun () -> Mutex.unlock lk) (fun () -> log m)
  in
  let sink = hub_sink setup.s_hub in
  let mk_worker widx = create_worker ~log ?obs ~sink ~widx setup in
  let nworkers = max 1 cfg.workers in
  let workers = Array.init nworkers mk_worker in
  if nworkers = 1 then worker_loop workers.(0)
  else
    (* Domain-per-worker (§5): truly parallel campaigns on OCaml 5. *)
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers
    |> Array.iter Domain.join;
  let session =
    assemble_session ~worker_campaigns:(Array.map (fun w -> w.my_campaigns) workers) setup
  in
  (match obs with
  | Some o ->
      Obs.Events.emit o
        (Obs.Events.Session_end
           {
             campaigns = session.campaigns_run;
             wall = session.wall_time;
             bugs = List.length (Report.bug_groups session.report);
           })
  | None -> ());
  session

(* Session-level matching of the target's seeded ground truth:
   - Inter/Intra/Sync bugs match a validated unique-bug group;
   - "Other" bugs with a read site (e.g. redundant writes) match an
     inconsistency candidate pair;
   - "Other" bugs without one (e.g. a missing unlock) match when their
     branch site was covered and a hang was recorded. *)
let found_known_bugs (session : session) (target : Target.t) =
  let groups = Report.bug_groups session.report in
  let group_matches = Report.match_known target groups in
  let pairs = Report.candidate_pairs session.report in
  List.map
    (fun ((kb : Target.known_bug), found) ->
      match kb.kb_type with
      | `Inter | `Intra | `Sync -> (kb, found)
      | `Other -> (
          match (kb.kb_write_site, kb.kb_read_site) with
          | Some w, Some r ->
              (kb, List.exists (fun (w', r', _) -> String.equal w w' && String.equal r r') pairs)
          | Some w, None ->
              ( kb,
                Branch_cov.covered session.branch (Runtime.Instr.site w)
                && Report.hangs session.report <> [] )
          | None, _ -> (kb, false)))
    group_matches
