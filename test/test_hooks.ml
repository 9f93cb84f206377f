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
   - over random event streams, the array-backed alias tracker, shared
     queue and site set agree with hash-table reference models kept
     here, across resets;
   - the shared queue's decoder rejects addresses its slot array cannot
     hold. *)

module Alias = Pmrace.Alias_cov
module Queue = Pmrace.Shared_queue
module Site_set = Pmrace.Site_set
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
  let engine = Engine.create ~bound:(Array.of_list (Hub.delta_handlers delta)) target in
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
        let c = Hub.commit hub ~campaign:i ~delta r.env ~hung:r.hung ~hang_info:"" in
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
  taint_some env words;
  Env.reset env;
  check_cleared "reset" env;
  taint_some env words;
  Env.reset_checkers env;
  check_cleared "reset_checkers" env;
  taint_some env words;
  Env.boot env (Pool.crash_image env.Env.pool);
  check_cleared "boot" env;
  (* Taint that flows through the hooks lands on the same stack. *)
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let i = Instr.of_int 0 in
  Mem.store t0 ~instr:i (Tval.of_int 40) (Tval.of_int 9);
  let v = Mem.load t1 ~instr:i (Tval.of_int 40) in
  Alcotest.(check bool) "dirty read is tainted" true (Tval.is_tainted v);
  Mem.store t1 ~instr:i (Tval.of_int 41) v;
  Alcotest.(check int) "propagated taint: one word" 1 (Env.tainted_words env);
  Env.reset env;
  check_cleared "reset after hooks" env

(* ------------------------------------------------------------------ *)
(* (c) Array-backed listeners ≡ hash-table reference models.           *)
(* ------------------------------------------------------------------ *)

(* The alias tracker as it was: previous accessor and last writer per
   address in hash tables, one access record per event. *)
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

  let handler cov t = function
    | Env.Ev_load { instr; tid; addr; dirty } ->
        let cur = { Alias.a_instr = Instr.to_int instr; a_dirty = dirty; a_tid = tid } in
        (if dirty then
           match Hashtbl.find_opt t.last_writer addr with
           | Some w when w.Alias.a_tid <> tid ->
               Alias.record_site_pair cov ~write_instr:w.Alias.a_instr ~read_instr:cur.a_instr
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
      (* System under test: a worker delta's alias map, tracker and queue,
         reset between campaigns like [Hub.reset_delta] does. *)
      let d_alias = Alias.create ~size_log:10 () and tracker = Alias.tracker () in
      let d_queue = Queue.create () in
      let sites = Site_set.create () in
      let handlers =
        [
          Alias.handler d_alias tracker;
          Queue.handler d_queue;
          Site_set.access_handler (ref sites);
        ]
      in
      (* Reference side. *)
      let ref_cov = Alias.create ~size_log:10 () and ref_tr = Ref_alias.create () in
      let ref_queue = ref (Ref_queue.create ()) in
      let ref_sites = Hashtbl.create 16 in
      (* Session-long copies that are never reset: merges must agree too. *)
      let shared = Alias.create ~size_log:10 () and shared_ref = Alias.create ~size_log:10 () in
      let ok = ref true in
      let compare_state () =
        if Obs.Codec.(encode Alias.codec d_alias <> encode Alias.codec ref_cov) then ok := false;
        if Alias.count d_alias <> Alias.count ref_cov then ok := false;
        if Alias.site_pairs d_alias <> Alias.site_pairs ref_cov then ok := false;
        if render_entries (Queue.entries d_queue) <> Ref_queue.entries !ref_queue then ok := false;
        if Queue.tracked_addresses d_queue <> Hashtbl.length !ref_queue then ok := false;
        for id = -1 to Instr.count () do
          if Site_set.mem sites id <> Hashtbl.mem ref_sites id then ok := false
        done;
        if Site_set.count sites <> Hashtbl.length ref_sites then ok := false;
        if
          Alias.fresh_pairs ~src:d_alias shared
          <> List.filter
               (fun p -> not (List.mem p (Alias.site_pairs shared_ref)))
               (Alias.site_pairs ref_cov)
        then ok := false
      in
      let end_campaign () =
        compare_state ();
        Alias.merge_into ~src:d_alias shared;
        Alias.merge_into ~src:ref_cov shared_ref;
        if Alias.site_pairs shared <> Alias.site_pairs shared_ref then ok := false
      in
      List.iter
        (function
          | Reset ->
              end_campaign ();
              Alias.clear d_alias;
              Alias.reset_tracker tracker;
              Queue.clear d_queue;
              Alias.clear ref_cov;
              Ref_alias.reset ref_tr;
              ref_queue := Ref_queue.create ();
              Site_set.clear sites;
              Hashtbl.reset ref_sites
          | Ev ev ->
              List.iter (fun h -> h ev) handlers;
              Ref_alias.handler ref_cov ref_tr ev;
              Ref_queue.handler !ref_queue ev;
              match ev with
              | Env.Ev_load { instr; _ } | Env.Ev_store { instr; _ } | Env.Ev_movnt { instr; _ } ->
                  Hashtbl.replace ref_sites (Instr.to_int instr) ()
              | Env.Ev_branch _ | Env.Ev_clwb _ | Env.Ev_fence _ -> ())
        ops;
      end_campaign ();
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

let workloads = Workloads.Registry.with_examples @ Workloads.Registry.planted

let suite =
  List.map
    (fun (t : Pmrace.Target.t) ->
      Alcotest.test_case ("listener-free session ≡ listened: " ^ t.name) `Slow
        (test_listener_free t))
    workloads
  @ [
      Alcotest.test_case "shadow taint: empty after reset paths, O(tainted)" `Quick
        test_taint_resets;
      Alcotest.test_case "shared queue codec: out-of-range address is an error" `Quick
        test_queue_codec_range;
      QCheck_alcotest.to_alcotest prop_listeners_match_reference;
    ]
