(* The instrumentation hot path against its specification.

   The hooks build an event record only when a listener is installed,
   shadow taint lives in a flat word-indexed array, and the coverage
   listeners keep address- and id-indexed arrays instead of hash tables.
   This suite checks that none of that is observable:

   - on every registered workload, a seeded session run with the fuzz
     worker's bound listener set, with only a no-op transient listener,
     and with no listener at all (so no event is ever built) gives the
     same campaigns, candidate lists and bug groups;
   - the shadow taint is empty after every reset path, and clearing it
     walks only the words that were tainted;
   - over random event streams fed to the fuzz worker's one coverage
     recorder, the array-backed alias tracker, bitset shared queue, branch
     coverage and site set agree with hash-table reference models kept
     here, across resets, and so do their session-long merges (alias map
     and queue) and an alias merge destination that is cleared and
     reused;
   - on every registered workload and under every fuzzing mode and
     execution flag, each commit's achieved site pairs (the campaign's
     Inter candidates) equal the pairs a last-writer model derives from
     the campaign's events, and the report keyed by packed site ids holds
     the same candidates and first sightings as a name-keyed model;
   - over random streams of tainted loads, stores, flushes, fences and
     evictions, the checkers' word-indexed pending set and newest-first
     label sets confirm the same inconsistencies (order, sources, effect
     words, crash surface), sync events and pending effects as a model of
     the list-based checker kept here, across resets;
   - the shared queue's decoder rejects addresses its slot array cannot
     hold and thread ids outside the range it accepts. *)

module Alias = Pmrace.Alias_cov
module Queue = Pmrace.Shared_queue
module Site_set = Pmrace.Site_set
module Branch = Pmrace.Branch_cov
module Campaign = Pmrace.Campaign
module Engine = Pmrace.Engine
module Hub = Pmrace.Hub
module Report = Pmrace.Report
module Seed = Pmrace.Seed
module Post_failure = Pmrace.Post_failure
module Pool = Pmem.Pool
module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Taint = Runtime.Taint
module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates

(* ------------------------------------------------------------------ *)
(* (a) Skipping event construction changes nothing.                    *)
(* ------------------------------------------------------------------ *)

let campaigns = 20

(* What a campaign leaves behind, with the unique candidates in the order
   [Candidates.unique] emits them (the order [Report.absorb] sees). *)
let digest (words : int64 array) = Digest.to_hex (Digest.string (Marshal.to_string words []))

let fingerprint (r : Campaign.result) =
  let env = r.Campaign.env in
  let pool = env.Env.pool in
  let ck = env.Env.checkers in
  let cands kind =
    List.map
      (fun (c : Candidates.cand) ->
        Printf.sprintf "%d:%d:%d>%d:%d" c.id c.addr (Instr.to_int c.write_instr)
          (Instr.to_int c.read_instr) c.read_tid)
      (Candidates.unique (Checkers.candidates ck) kind)
  in
  String.concat "|"
    [
      digest (Array.init (Pool.size pool) (Pool.peek pool));
      digest (Array.init (Pool.size pool) (Pool.image_word (Pool.crash_image pool)));
      String.concat "," (cands Candidates.Inter);
      String.concat "," (cands Candidates.Intra);
      string_of_int (List.length (Checkers.inconsistencies ck));
      string_of_int (List.length (Checkers.sync_events ck));
      string_of_int (Candidates.dynamic_count (Checkers.candidates ck));
      string_of_int r.outcome.steps;
      string_of_bool r.hung;
    ]

(* Validate a campaign's new findings, as a fuzz worker does: bug groups
   are built from verdicts. *)
let validate vctx findings = List.iter (fun f -> ignore (Report.validate vctx f)) findings

let bug_groups report =
  List.map (Fmt.str "%a" Report.pp_bug_group) (Report.bug_groups report) |> List.sort compare

(* The fuzz worker's configuration: the delta's handlers bound into a
   persistent engine, committed to a hub after every campaign.  Later
   campaigns take PM-aware sync points from the hub's queue, so the
   session exercises every policy the fuzzer uses.  Returns the inputs it
   ran, for the listener-free replays below. *)
let worker_session (target : Pmrace.Target.t) =
  let hub = Hub.create ~max_campaigns:campaigns () in
  let delta = Hub.fresh_delta () in
  let engine = Engine.create ~bound:[| Hub.recorder delta ~sites:None |] target in
  let rng = Sched.Rng.create 2024 in
  let seeds = Array.init 3 (fun _ -> Seed.gen rng target.Pmrace.Target.profile) in
  let vctx = Post_failure.ctx ~images:4 target in
  let runs =
    List.init campaigns (fun i ->
        let policy =
          match Hub.queue_entries hub with
          | [] -> Campaign.Random_sched
          | entries when i mod 3 <> 0 ->
              Campaign.Pmrace { entry = List.nth entries (i mod List.length entries); skip = 0 }
          | _ -> Campaign.Random_sched
        in
        let input =
          Campaign.input ~sched_seed:(Sched.Rng.int rng 1_000_000_000) ~policy target
            seeds.(i mod Array.length seeds)
        in
        Hub.reset_delta delta;
        let r = Campaign.run ~engine input in
        let c = Hub.commit hub ~campaign:i ~seed:input.seed ~delta ~invariants:[] r in
        validate vctx c.Hub.c_new;
        (input, fingerprint r))
  in
  (List.map fst runs, List.map snd runs, bug_groups (Hub.report hub))

(* The same inputs on a fresh engine with no bound listener, optionally
   with one no-op transient listener.  Without it no event is built. *)
let bare_session ~noop (target : Pmrace.Target.t) inputs =
  let engine = Engine.create target in
  let report = Report.create () in
  let vctx = Post_failure.ctx ~images:4 target in
  let listeners = if noop then [ (fun env -> Env.add_listener env (fun _ -> ())) ] else [] in
  let fps =
    List.mapi
      (fun i input ->
        let r = Campaign.run ~engine ~listeners input in
        Alcotest.(check bool) "listening as configured" noop (Env.listening r.env);
        validate vctx (Report.absorb ~campaign:i report r.env ~hung:r.hung ~hang_info:"");
        fingerprint r)
      inputs
  in
  (fps, bug_groups report)

let test_listener_free (target : Pmrace.Target.t) () =
  let inputs, worker_fps, worker_groups = worker_session target in
  let noop_fps, noop_groups = bare_session ~noop:true target inputs in
  let bare_fps, bare_groups = bare_session ~noop:false target inputs in
  Alcotest.(check (list string)) "no-op listener vs none: campaigns" noop_fps bare_fps;
  Alcotest.(check (list string)) "no-op listener vs none: bug groups" noop_groups bare_groups;
  Alcotest.(check (list string)) "bound listeners vs none: campaigns" worker_fps bare_fps;
  Alcotest.(check (list string)) "bound listeners vs none: bug groups" worker_groups bare_groups

(* ------------------------------------------------------------------ *)
(* (b) Shadow taint resets, in O(tainted words).                       *)
(* ------------------------------------------------------------------ *)

let pool_words = 1024

let all_untainted env =
  let ok = ref true in
  for w = 0 to pool_words - 1 do
    if not (Taint.is_empty (Env.mem_taint env w)) then ok := false
  done;
  !ok

(* Taint [words] (some twice, some back to untainted); the clear stack
   must hold each distinct word once, however often it was written. *)
let taint_some env words =
  List.iter
    (fun w ->
      Env.set_mem_taint env w (Taint.singleton w);
      Env.set_mem_taint env w (Taint.of_labels [ w; w + 1 ]))
    words;
  Env.set_mem_taint env (List.hd words) Taint.empty;
  Env.set_mem_taint env (List.hd words) (Taint.singleton 3);
  Alcotest.(check int) "one stack entry per tainted word" (List.length words)
    (Env.tainted_words env)

let test_taint_resets () =
  let words = [ 5; 17; 300; 1023 ] in
  let check_cleared label env =
    Alcotest.(check bool) (label ^ ": every word untainted") true (all_untainted env);
    Alcotest.(check int) (label ^ ": stack empty") 0 (Env.tainted_words env)
  in
  let env = Env.create ~pool_words () in
  let image = Pool.crash_image env.Env.pool in
  taint_some env words;
  Env.boot ~capture:Checkers.all env image;
  check_cleared "boot (capturing images)" env;
  taint_some env words;
  Env.boot env image;
  check_cleared "boot" env;
  (* Taint that flows through the hooks lands on the same stack. *)
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let i = Instr.of_int 0 in
  Mem.store t0 ~instr:i (Tval.of_int 40) (Tval.of_int 9);
  let v = Mem.load t1 ~instr:i (Tval.of_int 40) in
  Alcotest.(check bool) "dirty read is tainted" true (Tval.is_tainted v);
  Mem.store t1 ~instr:i (Tval.of_int 41) v;
  Alcotest.(check int) "propagated taint: one word" 1 (Env.tainted_words env);
  Env.boot env image;
  check_cleared "boot after hooks" env

(* ------------------------------------------------------------------ *)
(* (c) Array-backed listeners ≡ hash-table reference models.           *)
(* ------------------------------------------------------------------ *)

(* The alias tracker as it was: previous accessor and last writer per
   address in hash tables, one access record per event.  The last writer
   is the reference for achieved site pairs: a dirty load of a word that
   another thread stored last achieves (write site, read site), which the
   handler reports through [on_pair]. *)
module Ref_alias = struct
  type t = { last : (int, Alias.access) Hashtbl.t; last_writer : (int, Alias.access) Hashtbl.t }

  let create () = { last = Hashtbl.create 16; last_writer = Hashtbl.create 16 }

  let reset t =
    Hashtbl.reset t.last;
    Hashtbl.reset t.last_writer

  let on_access cov t addr cur =
    (match Hashtbl.find_opt t.last addr with
    | Some prev -> ignore (Alias.observe cov ~prev ~cur)
    | None -> ());
    Hashtbl.replace t.last addr cur

  let handler ~on_pair cov t = function
    | Env.Ev_load { instr; tid; addr; dirty } ->
        let cur = { Alias.a_instr = Instr.to_int instr; a_dirty = dirty; a_tid = tid } in
        (if dirty then
           match Hashtbl.find_opt t.last_writer addr with
           | Some w when w.Alias.a_tid <> tid -> on_pair w.Alias.a_instr cur.a_instr
           | Some _ | None -> ());
        on_access cov t addr cur
    | Env.Ev_store { instr; tid; addr } | Env.Ev_movnt { instr; tid; addr } ->
        let cur = { Alias.a_instr = Instr.to_int instr; a_dirty = true; a_tid = tid } in
        Hashtbl.replace t.last_writer addr cur;
        on_access cov t addr cur
    | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ()
end

(* The shared queue as it was: a hash table of per-address records. *)
module Ref_queue = struct
  module Iset = Set.Make (Int)

  type r = {
    mutable li : Iset.t;  (** load sites *)
    mutable si : Iset.t;  (** store sites *)
    mutable lt : Iset.t;  (** load tids *)
    mutable st : Iset.t;  (** store tids *)
    mutable hits : int;
  }

  let create () : (int, r) Hashtbl.t = Hashtbl.create 16

  let record t addr =
    match Hashtbl.find_opt t addr with
    | Some r -> r
    | None ->
        let r = { li = Iset.empty; si = Iset.empty; lt = Iset.empty; st = Iset.empty; hits = 0 } in
        Hashtbl.add t addr r;
        r

  let handler t = function
    | Env.Ev_load { instr; tid; addr; _ } ->
        let r = record t addr in
        r.li <- Iset.add (Instr.to_int instr) r.li;
        r.lt <- Iset.add tid r.lt;
        r.hits <- r.hits + 1
    | Env.Ev_store { instr; tid; addr } | Env.Ev_movnt { instr; tid; addr } ->
        let r = record t addr in
        r.si <- Iset.add (Instr.to_int instr) r.si;
        r.st <- Iset.add tid r.st;
        r.hits <- r.hits + 1
    | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ()

  (* The session-long queue: per-address set unions, hit counts summed. *)
  let union_into ~src dst =
    Hashtbl.iter
      (fun addr s ->
        let d = record dst addr in
        d.li <- Iset.union d.li s.li;
        d.si <- Iset.union d.si s.si;
        d.lt <- Iset.union d.lt s.lt;
        d.st <- Iset.union d.st s.st;
        d.hits <- d.hits + s.hits)
      src

  (* [Shared_queue.entries], rendered. *)
  let entries t =
    Hashtbl.fold
      (fun addr r acc ->
        if
          (not (Iset.is_empty r.li))
          && (not (Iset.is_empty r.si))
          && Iset.cardinal (Iset.union r.lt r.st) > 1
        then (addr, Iset.elements r.li, Iset.elements r.si, r.hits) :: acc
        else acc)
      t []
    |> List.sort (fun (a1, _, _, h1) (a2, _, _, h2) ->
           match compare h2 h1 with 0 -> compare a1 a2 | c -> c)
end

let render_entries es =
  List.map
    (fun (e : Queue.entry) ->
      (e.addr, List.map Instr.to_int e.loads, List.map Instr.to_int e.stores, e.hits))
    es

type op = Ev of Env.event | Reset

(* Random streams over a few existing sites (registering new ones would
   shift the site-id layout other suites' goldens hash), four threads
   (one negative, like init contexts) and a small address range, with an
   occasional far address to exercise array growth. *)
let gen_ops =
  let open QCheck.Gen in
  let nsites = Instr.count () in
  let instr = map (fun i -> Instr.of_int (i mod nsites)) (int_bound 7) in
  let tid = int_range (-1) 2 in
  let addr = frequency [ (12, int_bound 31); (1, int_range 300 3000) ] in
  let ev =
    frequency
      [
        (4, map3 (fun instr (tid, addr) dirty -> Ev (Env.Ev_load { instr; tid; addr; dirty }))
              instr (pair tid addr) bool);
        (3, map3 (fun instr tid addr -> Ev (Env.Ev_store { instr; tid; addr })) instr tid addr);
        (1, map3 (fun instr tid addr -> Ev (Env.Ev_movnt { instr; tid; addr })) instr tid addr);
        (1, map2 (fun instr tid -> Ev (Env.Ev_branch { instr; tid })) instr tid);
        (1, map3 (fun instr tid addr -> Ev (Env.Ev_clwb { instr; tid; addr; dirty_words = 1 }))
              instr tid addr);
        (1, return Reset);
      ]
  in
  list_size (int_range 1 300) ev

let prop_listeners_match_reference =
  QCheck.Test.make ~name:"hooks: array-backed listeners ≡ hash-table models" ~count:200
    (QCheck.make gen_ops) (fun ops ->
      (* System under test: a worker delta fed by the worker's one coverage
         recorder, reset between campaigns by [Hub.reset_delta].  Achieved
         site pairs come from the checkers, not the recorder, and a
         synthetic stream's [dirty] flags need not match any checker: the
         model's last-writer pairs are injected on both sides, so the
         merges and [fresh_pairs] still run on real pairs.  Section (e)
         checks the pairs themselves on real campaigns. *)
      let delta = Hub.fresh_delta () in
      let d_alias = delta.Hub.d_alias and d_queue = delta.Hub.d_queue in
      let d_branch = delta.Hub.d_branch in
      let sites = Site_set.create () in
      let record = Hub.recorder delta ~sites:(Some (ref sites)) in
      (* Reference side: fresh models per campaign. *)
      let ref_cov = ref (Alias.create ()) and ref_tr = Ref_alias.create () in
      let ref_queue = ref (Ref_queue.create ()) in
      let ref_sites = Hashtbl.create 16 and ref_branches = Hashtbl.create 16 in
      (* Session-long copies that are never reset: merges must agree too. *)
      let shared = Alias.create () and shared_ref = Alias.create () in
      let shared_queue = Queue.create () and shared_ref_queue = Ref_queue.create () in
      (* A merge destination that is cleared every other campaign and then
         merged into again, against a fresh map at each clear. *)
      let wire = Alias.create () and wire_ref = ref (Alias.create ()) in
      let campaigns = ref 0 in
      let ok = ref true in
      let same_alias a b =
        Obs.Codec.(encode Alias.codec a = encode Alias.codec b) && Alias.count a = Alias.count b
      in
      let compare_state () =
        if not (same_alias d_alias !ref_cov) then ok := false;
        if render_entries (Queue.entries d_queue) <> Ref_queue.entries !ref_queue then ok := false;
        if Queue.tracked_addresses d_queue <> Hashtbl.length !ref_queue then ok := false;
        for id = -1 to Instr.count () do
          if Site_set.mem sites id <> Hashtbl.mem ref_sites id then ok := false;
          if id >= 0 && id < Instr.count () then
            if Branch.covered d_branch (Instr.of_int id) <> Hashtbl.mem ref_branches id then
              ok := false
        done;
        if Site_set.count sites <> Hashtbl.length ref_sites then ok := false;
        if Branch.count d_branch <> Hashtbl.length ref_branches then ok := false;
        if
          Alias.fresh_pairs ~src:d_alias shared
          <> List.filter
               (fun p -> not (List.mem p (Alias.site_pairs shared_ref)))
               (Alias.site_pairs !ref_cov)
        then ok := false
      in
      let end_campaign () =
        compare_state ();
        Alias.merge_into ~src:d_alias shared;
        Alias.merge_into ~src:!ref_cov shared_ref;
        if Alias.site_pairs shared <> Alias.site_pairs shared_ref then ok := false;
        if not (same_alias shared shared_ref) then ok := false;
        Queue.merge_into ~src:d_queue shared_queue;
        Ref_queue.union_into ~src:!ref_queue shared_ref_queue;
        if render_entries (Queue.entries shared_queue) <> Ref_queue.entries shared_ref_queue then
          ok := false;
        if Queue.tracked_addresses shared_queue <> Hashtbl.length shared_ref_queue then ok := false;
        Alias.merge_into ~src:d_alias wire;
        Alias.merge_into ~src:!ref_cov !wire_ref;
        if not (same_alias wire !wire_ref) then ok := false;
        incr campaigns;
        if !campaigns mod 2 = 0 then begin
          Alias.clear wire;
          wire_ref := Alias.create ()
        end
      in
      List.iter
        (function
          | Reset ->
              end_campaign ();
              Hub.reset_delta delta;
              ref_cov := Alias.create ();
              Ref_alias.reset ref_tr;
              ref_queue := Ref_queue.create ();
              Site_set.clear sites;
              Hashtbl.reset ref_sites;
              Hashtbl.reset ref_branches
          | Ev ev ->
              record ev;
              let on_pair write_instr read_instr =
                Alias.record_site_pair d_alias ~write_instr ~read_instr;
                Alias.record_site_pair !ref_cov ~write_instr ~read_instr
              in
              Ref_alias.handler ~on_pair !ref_cov ref_tr ev;
              Ref_queue.handler !ref_queue ev;
              match ev with
              | Env.Ev_load { instr; _ } | Env.Ev_store { instr; _ } | Env.Ev_movnt { instr; _ } ->
                  Hashtbl.replace ref_sites (Instr.to_int instr) ()
              | Env.Ev_branch { instr; _ } -> Hashtbl.replace ref_branches (Instr.to_int instr) ()
              | Env.Ev_clwb _ | Env.Ev_fence _ -> ())
        ops;
      end_campaign ();
      !ok)

(* ------------------------------------------------------------------ *)
(* (d) Word-indexed pending set ≡ the list-based checker.              *)
(* ------------------------------------------------------------------ *)

(* The checkers as they were: label sets as sorted int lists, pending side
   effects as a list scanned on every store and persisted word, candidates
   looked up through an option per label.  Candidate records come from a
   [Candidates.t] of the model's own, so ids match the checker's. *)
module Ref_checkers = struct
  let rec add l = function
    | [] -> [ l ]
    | x :: _ as t when l < x -> l :: t
    | x :: _ as t when l = x -> t
    | x :: rest -> x :: add l rest

  let rec union a b =
    match (a, b) with
    | [], t | t, [] -> t
    | x :: xs, y :: _ when x < y -> x :: union xs b
    | x :: _, y :: ys when y < x -> y :: union a ys
    | x :: xs, _ :: ys -> x :: union xs ys

  type t = {
    cands : Candidates.t;
    by_id : (int, Candidates.cand) Hashtbl.t;
    mutable pending : Checkers.side_effect list;
    mutable incs : Checkers.inconsistency list;
    uniq_inc : (int * int * int * Candidates.kind, unit) Hashtbl.t;
    mutable sync_vars : Checkers.sync_var list;
    mutable syncs : Checkers.sync_event list;
    uniq_sync : (string * int64, unit) Hashtbl.t;
  }

  let create () =
    {
      cands = Candidates.create ();
      by_id = Hashtbl.create 16;
      pending = [];
      incs = [];
      uniq_inc = Hashtbl.create 16;
      sync_vars = [];
      syncs = [];
      uniq_sync = Hashtbl.create 16;
    }

  let annotate_sync t ~name ~addr ~len ~init =
    t.sync_vars <- { Checkers.sv_name = name; sv_addr = addr; sv_len = len; sv_init = init }
                   :: t.sync_vars

  let on_load t pool ~tid ~instr ~addr =
    if not (Pool.is_dirty pool addr) then -1
    else
      let c =
        Candidates.register t.cands ~addr ~read_instr:instr ~read_tid:tid
          ~write_instr:(Instr.of_int (Pool.dirty_instr pool addr))
          ~write_tid:(Pool.dirty_tid pool addr)
      in
      Hashtbl.replace t.by_id c.id c;
      c.id

  let live_sources t pool labels =
    List.filter_map
      (fun l ->
        match Hashtbl.find_opt t.by_id l with
        | Some c when Pool.is_dirty pool c.Candidates.addr -> Some c
        | Some _ | None -> None)
      labels

  let on_store t pool ~tid ~instr ~addr ~value_taint ~addr_taint =
    let v = live_sources t pool value_taint and a = live_sources t pool addr_taint in
    if List.exists (fun (se : Checkers.side_effect) -> se.se_addr = addr) t.pending then
      t.pending <- List.filter (fun (se : Checkers.side_effect) -> se.se_addr <> addr) t.pending;
    if v <> [] || a <> [] then
      t.pending <-
        {
          Checkers.se_addr = addr;
          se_instr = instr;
          se_tid = tid;
          se_addr_flow = a <> [];
          se_sources = a @ v;
        }
        :: t.pending

  let record t pool ~(source : Candidates.cand) ~eff_addr ~eff_instr ~eff_tid ~addr_flow
      ~external_effect ~eff_words =
    let key =
      ( Instr.to_int source.write_instr,
        Instr.to_int source.read_instr,
        Instr.to_int eff_instr,
        source.kind )
    in
    if not (Hashtbl.mem t.uniq_inc key) then begin
      Hashtbl.add t.uniq_inc key ();
      t.incs <-
        {
          Checkers.source;
          eff_addr;
          eff_instr;
          eff_tid;
          addr_flow;
          external_effect;
          crash = Some (Pmem.Crash_images.capture pool);
          eff_words;
        }
        :: t.incs
    end

  let on_persisted t pool persisted =
    List.iter
      (fun w ->
        (match List.find_opt (fun (se : Checkers.side_effect) -> se.se_addr = w) t.pending with
        | Some se ->
            t.pending <- List.filter (fun se' -> se' != se) t.pending;
            List.iter
              (fun source ->
                record t pool ~source ~eff_addr:se.se_addr ~eff_instr:se.se_instr
                  ~eff_tid:se.se_tid ~addr_flow:se.se_addr_flow ~external_effect:false
                  ~eff_words:[ se.se_addr ])
              (List.filter
                 (fun (c : Candidates.cand) -> Pool.is_dirty pool c.addr)
                 se.se_sources)
        | None -> ());
        match
          List.find_opt
            (fun (v : Checkers.sync_var) -> w >= v.sv_addr && w < v.sv_addr + v.sv_len)
            t.sync_vars
        with
        | Some var ->
            let v = Pool.peek pool w in
            if (not (Int64.equal v var.sv_init)) && not (Hashtbl.mem t.uniq_sync (var.sv_name, v))
            then begin
              Hashtbl.add t.uniq_sync (var.sv_name, v) ();
              t.syncs <-
                {
                  Checkers.var;
                  sy_addr = w;
                  sy_value = v;
                  sy_crash = Some (Pmem.Crash_images.capture pool);
                }
                :: t.syncs
            end
        | None -> ())
      persisted

  let on_external_effect t pool ~tid ~instr ~taint =
    List.iter
      (fun source ->
        record t pool ~source ~eff_addr:(-1) ~eff_instr:instr ~eff_tid:tid ~addr_flow:false
          ~external_effect:true ~eff_words:[])
      (live_sources t pool taint)
end

let ck_words = 64
let ck_regs = 4

type ck_op =
  | Load of { tid : int; site : int; addr : int; reg : int }
  | Arith of { dst : int; a : int; b : int }
  | Store of { tid : int; site : int; addr : int; reg : int; via : int option; nt : bool }
  | Clwb of int
  | Fence
  | Evict of int
  | External of { tid : int; site : int; reg : int }
  | Ck_reset

(* Streams over a 64-word pool with three threads; a tainted register may
   also feed a store's address (address flow).  Labels survive a reset in
   the registers and the shadow, as they would in any value a program
   still holds across a checker reset. *)
let gen_ck_ops =
  let open QCheck.Gen in
  let nsites = Instr.count () in
  let site = map (fun i -> i mod nsites) (int_bound 5) in
  let tid = int_bound 2 and addr = int_bound (ck_words - 1) and reg = int_bound (ck_regs - 1) in
  let op =
    frequency
      [
        ( 5,
          map3
            (fun (tid, site) addr reg -> Load { tid; site; addr; reg })
            (pair tid site) addr reg );
        (3, map3 (fun dst a b -> Arith { dst; a; b }) reg reg reg);
        ( 5,
          map3
            (fun (tid, site) (addr, reg) (via, nt) -> Store { tid; site; addr; reg; via; nt })
            (pair tid site) (pair addr reg)
            (pair (opt ~ratio:0.2 reg) (frequency [ (5, return false); (1, return true) ])) );
        (2, map (fun a -> Clwb a) addr);
        (2, return Fence);
        (1, map (fun l -> Evict l) (int_bound ((ck_words / 8) - 1)));
        (1, map3 (fun tid site reg -> External { tid; site; reg }) tid site reg);
        (1, return Ck_reset);
      ]
  in
  list_size (int_range 1 400) op

let render_crash = function
  | None -> "-"
  | Some st ->
      String.concat ","
        (List.init ck_words (fun w -> Int64.to_string (Pmem.Crash_images.image_word st [] w)))
      ^ Printf.sprintf "/%d" (Pmem.Crash_images.line_count st)

let render_incs incs =
  List.map
    (fun (i : Checkers.inconsistency) ->
      Printf.sprintf "%d:%s@%d:%d:%d:%b:%b:[%s]:%s" i.source.id
        (Fmt.str "%a" Candidates.pp_kind i.source.kind)
        i.eff_addr (Instr.to_int i.eff_instr) i.eff_tid i.addr_flow i.external_effect
        (String.concat ";" (List.map string_of_int i.eff_words))
        (render_crash i.crash))
    incs

let render_syncs evs =
  List.map
    (fun (e : Checkers.sync_event) ->
      Printf.sprintf "%s@%d=%Ld:%s" e.var.sv_name e.sy_addr e.sy_value (render_crash e.sy_crash))
    evs

let render_pending ses =
  List.map
    (fun (se : Checkers.side_effect) ->
      Printf.sprintf "%d:%d:%d:%b:[%s]" se.se_addr (Instr.to_int se.se_instr) se.se_tid
        se.se_addr_flow
        (String.concat ";"
           (List.map (fun (c : Candidates.cand) -> string_of_int c.id) se.se_sources)))
    ses

let prop_checkers_match_reference =
  QCheck.Test.make ~name:"hooks: word-indexed checkers ≡ list-based model" ~count:300
    (QCheck.make gen_ck_ops) (fun ops ->
      let pool = Pool.create ~words:ck_words () in
      let ck = Checkers.create () in
      let rf = ref (Ref_checkers.create ()) in
      let annotate () =
        Checkers.annotate_sync ck ~name:"hooks:sync" ~addr:5 ~len:2 ~init:0L;
        Ref_checkers.annotate_sync !rf ~name:"hooks:sync" ~addr:5 ~len:2 ~init:0L
      in
      annotate ();
      (* Registers and shadow words hold the checker's taint and the
         model's sorted list side by side. *)
      let regs = Array.make ck_regs (Taint.empty, []) in
      let shadow = Array.make ck_words (Taint.empty, []) in
      let ok = ref true and stamp = ref 0 in
      let agree () =
        let r = !rf in
        Array.iter (fun (t, m) -> if Taint.labels t <> m then ok := false) regs;
        if render_incs (Checkers.inconsistencies ck) <> render_incs (List.rev r.incs) then
          ok := false;
        if render_syncs (Checkers.sync_events ck) <> render_syncs (List.rev r.syncs) then
          ok := false;
        let by_addr =
          List.sort
            (fun (a : Checkers.side_effect) (b : Checkers.side_effect) ->
              Int.compare a.se_addr b.se_addr)
            r.pending
        in
        if render_pending (Checkers.pending_effects ck) <> render_pending by_addr then ok := false;
        if
          Candidates.dynamic_count (Checkers.candidates ck) <> Candidates.dynamic_count r.cands
        then ok := false
      in
      let persisted ws =
        Checkers.on_persisted ck pool ws;
        Ref_checkers.on_persisted !rf pool ws
      in
      List.iter
        (fun op ->
          (match op with
          | Load { tid; site; addr; reg } ->
              let instr = Instr.of_int site in
              let l = Checkers.on_load ck pool ~tid ~instr ~addr in
              let l' = Ref_checkers.on_load !rf pool ~tid ~instr ~addr in
              if l <> l' then ok := false;
              let t, m = shadow.(addr) in
              regs.(reg) <- (if l < 0 then (t, m) else (Taint.add l t, Ref_checkers.add l m))
          | Arith { dst; a; b } ->
              let ta, ma = regs.(a) and tb, mb = regs.(b) in
              regs.(dst) <- (Taint.union ta tb, Ref_checkers.union ma mb)
          | Store { tid; site; addr; reg; via; nt } ->
              let instr = Instr.of_int site in
              let vt, vm = regs.(reg) in
              let at, am = match via with Some r -> regs.(r) | None -> (Taint.empty, []) in
              Checkers.on_store ck pool ~tid ~instr ~addr ~value_taint:vt ~addr_taint:at;
              Ref_checkers.on_store !rf pool ~tid ~instr ~addr ~value_taint:vm ~addr_taint:am;
              incr stamp;
              let v = Int64.of_int !stamp in
              if nt then Pool.movnt pool ~tid ~instr:site addr v
              else Pool.store pool ~tid ~instr:site addr v;
              shadow.(addr) <- (vt, vm)
          | Clwb a -> Pool.clwb pool a
          | Fence -> persisted (Pool.sfence pool)
          | Evict l -> ( match Pool.evict_line pool l with [] -> () | ws -> persisted ws)
          | External { tid; site; reg } ->
              let instr = Instr.of_int site in
              let t, m = regs.(reg) in
              Checkers.on_external_effect ck pool ~tid ~instr ~taint:t;
              Ref_checkers.on_external_effect !rf pool ~tid ~instr ~taint:m
          | Ck_reset ->
              Checkers.reset ck ~capture:Checkers.all;
              rf := Ref_checkers.create ();
              annotate ());
          agree ())
        ops;
      !ok)

(* Decoded queue addresses index the slot array: a negative or absurdly
   large one must be a decode error, not an exception or a huge
   allocation. *)
let test_queue_codec_range () =
  let record addr =
    Obs.Json.(
      List
        [
          Obj
            [
              ("addr", Int addr);
              ("loads", List []);
              ("stores", List []);
              ("load_tids", List []);
              ("store_tids", List []);
              ("hits", Int 1);
            ];
        ])
  in
  (match Obs.Codec.decode Queue.codec (record 40) with
  | Ok q -> Alcotest.(check int) "in range decodes" 1 (Queue.tracked_addresses q)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun addr ->
      Alcotest.(check bool)
        (Printf.sprintf "address %d rejected" addr)
        true
        (Result.is_error (Obs.Codec.decode Queue.codec (record addr))))
    [ -1; 1 lsl 40 ]

(* Thread ids from the wire are checked like addresses: a negative or
   absurdly large one is a decode error. *)
let test_queue_codec_tid_range () =
  let record tid =
    Obs.Json.(
      List
        [
          Obj
            [
              ("addr", Int 40);
              ("loads", List []);
              ("stores", List []);
              ("load_tids", List [ Int 0 ]);
              ("store_tids", List [ Int tid ]);
              ("hits", Int 2);
            ];
        ])
  in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "thread id %d decodes" tid)
        true
        (Result.is_ok (Obs.Codec.decode Queue.codec (record tid))))
    [ 0; 62; 63; 1000 ];
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "thread id %d rejected" tid)
        true
        (Result.is_error (Obs.Codec.decode Queue.codec (record tid))))
    [ -1; 1 lsl 24; max_int ]

(* ------------------------------------------------------------------ *)
(* (e) One site-pair identity: coverage pairs and the report reuse the  *)
(*     checkers' packed candidate keys.                                 *)
(* ------------------------------------------------------------------ *)

(* The report as it was: candidate pairs and inconsistencies keyed by
   site names, first sighting wins. *)
module Ref_report = struct
  type t = {
    cands : (string * string * Candidates.kind, unit) Hashtbl.t;
    incs : (Candidates.kind * string * string * string, int) Hashtbl.t;
  }

  let create () = { cands = Hashtbl.create 16; incs = Hashtbl.create 16 }

  let absorb ~campaign t (env : Env.t) =
    let ck = env.Env.checkers in
    List.iter
      (fun kind ->
        List.iter
          (fun (c : Candidates.cand) ->
            Hashtbl.replace t.cands (Instr.name c.write_instr, Instr.name c.read_instr, kind) ())
          (Candidates.unique (Checkers.candidates ck) kind))
      [ Candidates.Inter; Candidates.Intra ];
    List.iter
      (fun (i : Checkers.inconsistency) ->
        let c = i.source in
        let name = Instr.name in
        let k = (c.kind, name c.write_instr, name c.read_instr, name i.eff_instr) in
        if not (Hashtbl.mem t.incs k) then Hashtbl.add t.incs k campaign)
      (Checkers.inconsistencies ck)

  let count t kind = Hashtbl.fold (fun (_, _, k) () n -> if k = kind then n + 1 else n) t.cands 0
  let pairs t = Hashtbl.fold (fun p () acc -> p :: acc) t.cands [] |> List.sort compare

  let findings t = Hashtbl.fold (fun (kind, w, r, e) c acc -> (kind, w, r, e, c) :: acc) t.incs []
end

type mode = Sync_points | Delay_inj | Random

(* The fuzzer's modes and execution flags: (label, mode, --por,
   crash images, eADR). *)
let identity_configs =
  [
    ("pmrace", Sync_points, false, 1, false);
    ("delay", Delay_inj, false, 1, false);
    ("random", Random, false, 1, false);
    ("--por --crash-images 4", Sync_points, true, 4, false);
    ("eADR", Sync_points, false, 1, true);
  ]

let identity_campaigns = 30

(* One session as a fuzz worker runs it — the recorder bound into a
   persistent engine, every result committed to a hub and its first
   sightings validated — with the last-writer model bound beside the
   recorder and the name-keyed report fed the same results. *)
let identity_session (target : Pmrace.Target.t) (label, mode, por, images, eadr) =
  let hub = Hub.create ~max_campaigns:identity_campaigns () in
  let delta = Hub.fresh_delta () in
  let model = Hashtbl.create 16 and tracker = Ref_alias.create () in
  let on_pair w r = Hashtbl.replace model (w, r) () in
  let bound =
    [| Hub.recorder delta ~sites:None; Ref_alias.handler ~on_pair (Alias.create ()) tracker |]
  in
  let engine = Engine.create ~eadr ~bound target in
  let rng = Sched.Rng.create 77 in
  let seeds = Array.init 3 (fun _ -> Seed.gen rng target.Pmrace.Target.profile) in
  let vctx = Post_failure.ctx ~images target in
  let ref_report = Ref_report.create () in
  let achieved = Hashtbl.create 16 in
  for i = 0 to identity_campaigns - 1 do
    let policy =
      match (mode, Hub.queue_entries hub) with
      | Delay_inj, _ -> Campaign.Delay { prob = 0.08; max_delay = 25 }
      | Random, _ | Sync_points, [] -> Campaign.Random_sched
      | Sync_points, entries ->
          Campaign.Pmrace { entry = List.nth entries (i mod List.length entries); skip = 0 }
    in
    let input =
      Campaign.input ~sched_seed:(Sched.Rng.int rng 1_000_000_000) ~policy ~por target
        seeds.(i mod Array.length seeds)
    in
    Hub.reset_delta delta;
    Ref_alias.reset tracker;
    Hashtbl.reset model;
    let r = Campaign.run ~engine input in
    Ref_report.absorb ~campaign:i ref_report r.env;
    let c = Hub.commit hub ~campaign:i ~seed:input.seed ~delta ~invariants:[] r in
    let expected = Hashtbl.fold (fun p () acc -> p :: acc) model [] |> List.sort compare in
    let where = Printf.sprintf "%s, %s, campaign %d" target.name label i in
    Alcotest.(check (list (pair int int)))
      (where ^ ": delta pairs = last-writer pairs")
      expected (Alias.site_pairs delta.Hub.d_alias);
    Alcotest.(check (list (pair int int)))
      (where ^ ": new pairs")
      (List.filter (fun p -> not (Hashtbl.mem achieved p)) expected)
      c.Hub.c_new_pairs;
    List.iter (fun p -> Hashtbl.replace achieved p ()) expected;
    if c.Hub.c_first_trace then validate vctx c.Hub.c_new
  done;
  let where = Printf.sprintf "%s, %s" target.name label in
  let report = Hub.report hub in
  Alcotest.(check (list (pair int int)))
    (where ^ ": shared pairs")
    (Hashtbl.fold (fun p () acc -> p :: acc) achieved [] |> List.sort compare)
    (Alias.site_pairs (Hub.alias hub));
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (Fmt.str "%s: %a candidates" where Candidates.pp_kind kind)
        (Ref_report.count ref_report kind)
        (Report.candidate_count report kind))
    [ Candidates.Inter; Candidates.Intra ];
  let kind_name = Fmt.str "%a" Candidates.pp_kind in
  let render_pairs = List.map (fun (w, r, k) -> (w, r, kind_name k)) in
  Alcotest.(check (list (triple string string string)))
    (where ^ ": candidate pairs")
    (render_pairs (Ref_report.pairs ref_report))
    (render_pairs (List.sort compare (Report.candidate_pairs report)));
  let findings = Report.findings report in
  let render (k, w, r, e, c) = Printf.sprintf "%s %s>%s>%s @%d" (kind_name k) w r e c in
  Alcotest.(check (list string))
    (where ^ ": findings (kind, write, read, effect, first campaign)")
    (List.map render (Ref_report.findings ref_report) |> List.sort compare)
    (List.map
       (fun (f : Report.finding) ->
         match f.subject with
         | Report.Inconsistency i ->
             let c = i.source in
             render
               ( c.kind,
                 Instr.name c.write_instr,
                 Instr.name c.read_instr,
                 Instr.name i.eff_instr,
                 f.found_at )
         | Report.Sync _ | Report.Invariant _ -> Alcotest.fail "not an inconsistency")
       findings
    |> List.sort compare);
  let campaigns = List.map (fun (f : Report.finding) -> f.found_at) findings in
  Alcotest.(check (list int)) (where ^ ": findings listed by campaign")
    (List.sort compare campaigns) campaigns

let test_site_pair_identity target () = List.iter (identity_session target) identity_configs

let workloads = Workloads.Registry.with_examples @ Workloads.Registry.planted

let suite =
  List.map
    (fun (t : Pmrace.Target.t) ->
      Alcotest.test_case ("listener-free session ≡ listened: " ^ t.name) `Slow
        (test_listener_free t))
    workloads
  @ List.map
      (fun (t : Pmrace.Target.t) ->
        Alcotest.test_case ("site-pair identity: " ^ t.name) `Slow
          (test_site_pair_identity t))
      workloads
  @ [
      Alcotest.test_case "shadow taint: empty after reset paths, O(tainted)" `Quick
        test_taint_resets;
      Alcotest.test_case "shared queue codec: out-of-range address is an error" `Quick
        test_queue_codec_range;
      Alcotest.test_case "shared queue codec: out-of-range thread id is an error" `Quick
        test_queue_codec_tid_range;
      QCheck_alcotest.to_alcotest prop_listeners_match_reference;
      QCheck_alcotest.to_alcotest prop_checkers_match_reference;
    ]
