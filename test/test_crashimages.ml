(* Systematic crash-image enumeration (Pmem.Crash_images) and the unified
   post-failure validation API built on it: enumerator unit tests on
   hand-built pools, QCheck fence-consistency properties over random
   store/flush/fence traces, base-image confirmation, and the
   end-to-end torn-planted workload (invisible at the default budget of 1,
   found and replayable at --crash-images 4), and that capturing surfaces
   only for findings a worker does not know yet changes no session. *)

module CI = Pmem.Crash_images
module Pool = Pmem.Pool
module Cacheline = Pmem.Cacheline
module Post = Pmrace.Post_failure
module Whitelist = Pmrace.Whitelist

let words = 64 (* 8 lines of 8 words *)

let fresh () = Pool.create ~words ()

(* ------------------------------------------------------------------ *)
(* Enumerator unit tests on hand-built pools.                          *)
(* ------------------------------------------------------------------ *)

let test_quiesced_pool_single_image () =
  let p = fresh () in
  Pool.store p ~tid:0 ~instr:1 0 5L;
  Pool.quiesce p;
  let st = CI.capture p in
  Alcotest.(check int) "no in-flight lines" 0 (CI.line_count st);
  Alcotest.(check int) "one image" 1 (CI.count st);
  match List.of_seq (CI.to_seq st) with
  | [ (0, []) ] -> ()
  | _ -> Alcotest.fail "expected exactly the empty delta at index 0"

let test_two_line_enumeration () =
  (* Line 0 holds a dirty word, line 1 a pending one: radices (2, 2),
     four images in weight-then-line order. *)
  let p = fresh () in
  Pool.store p ~tid:0 ~instr:1 0 5L;
  Pool.store p ~tid:0 ~instr:2 8 7L;
  Pool.clwb p 8;
  let st = CI.capture p in
  Alcotest.(check int) "two lines" 2 (CI.line_count st);
  Alcotest.(check int) "four images" 4 (CI.count st);
  let d = Alcotest.(check (option (list (pair int int64)))) in
  d "index 0 is the base image" (Some []) (CI.delta st 0);
  d "index 1 drains the pending line" (Some [ (8, 7L) ]) (CI.delta st 1);
  d "index 2 evicts the dirty line" (Some [ (0, 5L) ]) (CI.delta st 2);
  d "index 3 drains both" (Some [ (0, 5L); (8, 7L) ]) (CI.delta st 3);
  d "index 4 is out of range" None (CI.delta st 4);
  (* Materialisation applies the delta to a copy of the base. *)
  let img = Option.get (CI.image st 1) in
  Alcotest.(check int64) "word 8 drained" 7L (Pool.image_word img 8);
  Alcotest.(check int64) "word 0 still stale" 0L (Pool.image_word img 0);
  Alcotest.(check int64) "base untouched" 0L (Pool.image_word (CI.base st) 8)

let test_mixed_line_radix_three () =
  (* One line with a pending word (0) and a dirty one (1): level 1 drains
     only the pending word, the whole-line eviction drains both — the
     dirty word never reaches PM on its own. *)
  let p = fresh () in
  Pool.store p ~tid:0 ~instr:1 0 5L;
  Pool.clwb p 0;
  Pool.store p ~tid:0 ~instr:2 1 6L;
  let st = CI.capture p in
  Alcotest.(check int) "one line" 1 (CI.line_count st);
  Alcotest.(check int) "three images" 3 (CI.count st);
  let d = Alcotest.(check (option (list (pair int int64)))) in
  d "level 1 drains pending only" (Some [ (0, 5L) ]) (CI.delta st 1);
  d "level 2 evicts the line" (Some [ (0, 5L); (1, 6L) ]) (CI.delta st 2)

let test_noop_drains_filtered () =
  (* Storing the durable value back leaves the word dirty but draining it
     would change nothing — capture must drop it or images duplicate. *)
  let p = fresh () in
  Pool.store p ~tid:0 ~instr:1 0 0L;
  Alcotest.(check bool) "word is dirty" true (Pool.is_dirty p 0);
  let st = CI.capture p in
  Alcotest.(check int) "no effective in-flight lines" 0 (CI.line_count st);
  Alcotest.(check int) "single image" 1 (CI.count st)

(* ------------------------------------------------------------------ *)
(* QCheck properties over random store/flush/fence/evict traces.       *)
(* ------------------------------------------------------------------ *)

(* Decode a (op, operand) list into pool operations.  Values are
   derived from the word so repeated stores stay deterministic but
   non-zero. *)
let apply_ops p ops =
  List.iter
    (fun (op, x) ->
      let w = x mod words in
      match op mod 5 with
      | 0 | 1 -> Pool.store p ~tid:0 ~instr:1 w (Int64.of_int (w + 17))
      | 2 -> Pool.clwb p w
      | 3 -> ignore (Pool.sfence p)
      | _ -> ignore (Pool.evict_line p (Cacheline.line_of_word w)))
    ops

let in_flight p =
  let base = Pool.crash_image p in
  List.sort_uniq compare (Pool.dirty_words p @ Pool.pending_words p)
  |> List.filter (fun w -> not (Int64.equal (Pool.peek p w) (Pool.image_word base w)))

let ops_gen = QCheck.(small_list (pair (int_bound 4) (int_bound (words - 1))))

let prop_images_fence_consistent =
  QCheck.Test.make ~name:"crashimages: every enumerated image is fence-consistent" ~count:120
    ops_gen (fun ops ->
      let p = fresh () in
      apply_ops p ops;
      let st = CI.capture p in
      let flight = in_flight p in
      let pending_of_line l =
        List.filter (fun w -> Cacheline.line_of_word w = l && Pool.is_pending p w) flight
      in
      let seen = Hashtbl.create 64 in
      Seq.for_all
        (fun (i, d) ->
          (* Indices are dense and deltas distinct. *)
          let fresh_delta = not (Hashtbl.mem seen d) in
          Hashtbl.replace seen d ();
          let sorted = List.sort compare d = d in
          (* Every drained word is in flight, at its volatile value. *)
          let legal =
            List.for_all
              (fun (w, v) -> List.mem w flight && Int64.equal v (Pool.peek p w))
              d
          in
          (* A dirty word only drains together with the whole line: all
             in-flight pending words of its line must drain too. *)
          let fence_ok =
            List.for_all
              (fun (w, _) ->
                (not (Pool.is_dirty p w))
                || List.for_all
                     (fun pw -> List.mem_assoc pw d)
                     (pending_of_line (Cacheline.line_of_word w)))
              d
          in
          i >= 0 && fresh_delta && sorted && legal && fence_ok)
        (CI.to_seq st)
      && Hashtbl.length seen = CI.count st)

let prop_index_zero_is_base_image =
  QCheck.Test.make ~name:"crashimages: index 0 is exactly the crash image" ~count:120 ops_gen
    (fun ops ->
      let p = fresh () in
      apply_ops p ops;
      let st = CI.capture p in
      let base = Pool.crash_image p in
      match (CI.delta st 0, CI.image st 0) with
      | Some [], Some img ->
          List.for_all
            (fun w -> Int64.equal (Pool.image_word img w) (Pool.image_word base w))
            (List.init words Fun.id)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Copy-free surfaces against a copy-based reference model.            *)
(* ------------------------------------------------------------------ *)

(* The reference: at capture time copy the whole durable image and every
   word's volatile value and state, then enumerate by brute force — all
   drain-digit vectors, sorted by total weight and then lexicographically
   (lowest line first), each materialised into a fresh copy.  Shares
   nothing with [Crash_images] but the drain rules. *)
type ref_line = { r_pending : (int * int64) list; r_dirty : (int * int64) list }

let reference_images p =
  let durable = Pool.crash_image p in
  let flight w =
    (Pool.is_pending p w || Pool.is_dirty p w)
    && not (Int64.equal (Pool.peek p w) (Pool.image_word durable w))
  in
  let lines =
    List.init (words / Cacheline.words_per_line) (fun l ->
        let ws =
          List.filter flight
            (List.init Cacheline.words_per_line (fun i -> (l * Cacheline.words_per_line) + i))
        in
        let of_kind pending =
          List.filter_map
            (fun w -> if Pool.is_pending p w = pending then Some (w, Pool.peek p w) else None)
            ws
        in
        { r_pending = of_kind true; r_dirty = of_kind false })
    |> List.filter (fun l -> l.r_pending <> [] || l.r_dirty <> [])
  in
  let levels l =
    match (l.r_pending, l.r_dirty) with
    | [], d -> [ []; d ]
    | pw, [] -> [ []; pw ]
    | pw, d -> [ []; pw; pw @ d ]
  in
  let rec vectors = function
    | [] -> [ [] ]
    | l :: rest ->
        List.concat_map
          (fun (d, words) -> List.map (fun tl -> (d, words) :: tl) (vectors rest))
          (List.mapi (fun d words -> (d, words)) (levels l))
  in
  let key v = (List.fold_left (fun a (d, _) -> a + d) 0 v, List.map fst v) in
  vectors lines
  |> List.stable_sort (fun a b -> compare (key a) (key b))
  |> List.map (fun v ->
         let img = Pool.image_copy durable in
         List.iter (fun (_, ws) -> List.iter (fun (w, x) -> Pool.image_set img w x) ws) v;
         img)

let same_image a b =
  Pool.image_words a = Pool.image_words b
  && List.for_all
       (fun w -> Int64.equal (Pool.image_word a w) (Pool.image_word b w))
       (List.init (Pool.image_words a) Fun.id)

(* Checked indices per capture: enough to cover every image of small
   surfaces, bounded for the product blow-up of large ones. *)
let max_checked = 48

let surface_matches_reference p st =
  let expected = reference_images p in
  let n = List.length expected in
  CI.count st = n
  && CI.image st n = None
  && same_image (Option.get (CI.image st 0)) (Pool.crash_image p)
  && List.for_all
       (fun (i, img) -> i >= max_checked || same_image (Option.get (CI.image st i)) img)
       (List.mapi (fun i img -> (i, img)) expected)

(* Several captures per campaign: each op segment ends with a capture. *)
let apply_op p (op, x) =
  let w = x mod words in
  match op mod 6 with
  | 0 | 1 -> Pool.store p ~tid:0 ~instr:1 w (Int64.of_int ((w * 7) + op + 1))
  | 2 -> Pool.movnt p ~tid:0 ~instr:2 w (Int64.of_int (w + 100))
  | 3 -> Pool.clwb p w
  | 4 -> ignore (Pool.sfence p)
  | _ -> ignore (Pool.evict_line p (Cacheline.line_of_word w))

let segments_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 4)
      (list_of_size (Gen.int_range 0 12) (pair (int_bound 5) (int_bound (words - 1)))))

(* Run the segments, capturing after each, and check every capture
   against the reference at the instant it was taken.  Returns the
   verdict and the captures' bases. *)
let captures p segments =
  List.fold_left
    (fun (ok, bases) seg ->
      List.iter (apply_op p) seg;
      let st = CI.capture p in
      (ok && surface_matches_reference p st, CI.base st :: bases))
    (true, []) segments

let all_same = function [] -> true | b :: rest -> List.for_all (fun b' -> b' == b) rest

let prop_surfaces_fresh_pool =
  QCheck.Test.make ~name:"crashimages: surfaces ≡ copy-based reference (fresh pool)" ~count:150
    segments_gen (fun segments ->
      let ok, bases = captures (fresh ()) segments in
      ok && all_same bases)

(* Two campaigns from one checkpoint: every capture of both shares the
   checkpoint image as its base. *)
let prop_surfaces_checkpoint_pool =
  QCheck.Test.make ~name:"crashimages: surfaces ≡ copy-based reference (checkpoint-booted pool)"
    ~count:150
    QCheck.(triple segments_gen segments_gen segments_gen)
    (fun (init, c1, c2) ->
      let p = fresh () in
      List.iter (List.iter (apply_op p)) init;
      Pool.quiesce p;
      let img = Pool.checkpoint p in
      let ok1, bases1 = captures p c1 in
      Pool.boot p img;
      let ok2, bases2 = captures p c2 in
      ok1 && ok2 && List.for_all (fun b -> b == img) (bases1 @ bases2))

(* Validation and campaigns rewind one way: a recovery pool boots every
   enumerated image of a capture taken from a checkpoint-booted campaign,
   as [base] plus [boot_delta], mutating it in between as recovery code
   would.  Each boot must equal the materialised image, and the checkpoint
   must come out unchanged and boot back exactly. *)
let prop_crash_boots_from_checkpoint =
  QCheck.Test.make ~name:"crashimages: crash-image boots from a checkpoint base ≡ materialised"
    ~count:100
    QCheck.(triple segments_gen segments_gen segments_gen)
    (fun (init, campaign, recovery) ->
      let p = fresh () in
      List.iter (List.iter (apply_op p)) init;
      Pool.quiesce p;
      let img = Pool.checkpoint p in
      let copy = Pool.image_copy img in
      List.iter (List.iter (apply_op p)) campaign;
      let st = CI.capture p in
      let r = fresh () in
      let matches target =
        let durable = Pool.crash_image r in
        let ok = ref (Pool.dirty_words r = [] && Pool.pending_words r = []) in
        for w = 0 to words - 1 do
          let v = Pool.image_word target w in
          if not (Int64.equal (Pool.peek r w) v && Int64.equal (Pool.image_word durable w) v)
          then ok := false
        done;
        !ok
      in
      let images_ok =
        Seq.fold_left
          (fun ok (i, d) ->
            Pool.boot ~delta:(CI.boot_delta st d) r (CI.base st);
            let this = matches (Option.get (CI.image st i)) in
            List.iter (List.iter (apply_op r)) recovery;
            ok && this)
          true
          (Seq.take 16 (CI.to_seq st))
      in
      Pool.boot r img;
      Pool.boot p img;
      let rewound = matches copy && Pool.touched_words r = 0 in
      let unchanged = ref true in
      for w = 0 to words - 1 do
        if not (Int64.equal (Pool.image_word img w) (Pool.image_word copy w)) then
          unchanged := false;
        if not (Int64.equal (Pool.peek p w) (Pool.image_word copy w)) then unchanged := false
      done;
      CI.base st == img && images_ok && rewound && !unchanged)

(* A booted pool captures against the image it booted from. *)
let prop_surfaces_booted_pool =
  QCheck.Test.make ~name:"crashimages: surfaces ≡ copy-based reference (booted pool)" ~count:100
    QCheck.(pair segments_gen segments_gen)
    (fun (init, c) ->
      let q = fresh () in
      List.iter (List.iter (apply_op q)) init;
      let img = Pool.crash_image q in
      let p = fresh () in
      Pool.boot ~delta:[ (5, 55L) ] p img;
      let ok, bases = captures p c in
      ok && List.for_all (fun b -> b == img) bases)

(* ------------------------------------------------------------------ *)
(* One surface per pool instant.                                       *)
(* ------------------------------------------------------------------ *)

let test_same_instant_shared () =
  let p = fresh () in
  Pool.store p ~tid:0 ~instr:1 0 5L;
  Pool.store p ~tid:0 ~instr:1 9 6L;
  Pool.clwb p 9;
  let st = CI.capture p in
  Alcotest.(check bool) "same instant: same surface" true (CI.capture p == st);
  ignore (Pool.load p 0);
  ignore (Pool.peek p 9);
  Alcotest.(check bool) "loads mutate nothing" true (CI.capture p == st);
  (* Every mutation, even one that changes no word, starts a new
     instant. *)
  let mutations =
    [
      ("store", fun () -> Pool.store p ~tid:0 ~instr:1 1 7L);
      ("store of the same value", fun () -> Pool.store p ~tid:0 ~instr:1 1 7L);
      ("movnt", fun () -> Pool.movnt p ~tid:0 ~instr:2 16 8L);
      ("clwb", fun () -> Pool.clwb p 0);
      ("clwb of a clean line", fun () -> Pool.clwb p 40);
      ("sfence", fun () -> ignore (Pool.sfence p));
      ("empty sfence", fun () -> ignore (Pool.sfence p));
      ("eviction", fun () -> Pool.store p ~tid:0 ~instr:1 24 9L; ignore (Pool.evict_line p 3));
      ("quiesce", fun () -> Pool.quiesce p);
      ("boot", fun () -> Pool.boot p (Pool.crash_image p));
    ]
  in
  ignore
    (List.fold_left
       (fun prev (name, mutate) ->
         mutate ();
         let st = CI.capture p in
         Alcotest.(check bool) (name ^ ": new surface") true (st != prev);
         Alcotest.(check bool) (name ^ ": then shared") true (CI.capture p == st);
         st)
       st mutations)

(* ------------------------------------------------------------------ *)
(* Capture is O(touched): no pool-sized allocation.                    *)
(* ------------------------------------------------------------------ *)

(* Words allocated by one capture of a checkpoint-booted pool of [size]
   words with the same 8 touched words (4 fenced, 2 flushed, 2 dirty),
   averaged over repeated captures, each after a store that changes no
   word's value but starts a new instant. *)
let capture_words size =
  let p = Pool.create ~words:size () in
  Pool.store p ~tid:0 ~instr:1 (size - 1) 1L;
  Pool.quiesce p;
  ignore (Pool.checkpoint p);
  List.iteri (fun i w -> Pool.store p ~tid:0 ~instr:1 w (Int64.of_int (i + 2))) [ 0; 1; 9; 17 ];
  Pool.clwb p 0;
  Pool.clwb p 9;
  ignore (Pool.sfence p);
  List.iteri (fun i w -> Pool.store p ~tid:0 ~instr:1 w (Int64.of_int (i + 10))) [ 2; 3; 25; 33 ];
  Pool.clwb p 2;
  Pool.clwb p 25;
  let v = Pool.peek p 33 in
  let rounds = 100 in
  ignore (CI.capture p);
  let before = Gc.minor_words () in
  let major_before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to rounds do
    Pool.store p ~tid:0 ~instr:1 33 v;
    ignore (Sys.opaque_identity (CI.capture p))
  done;
  let minor = Gc.minor_words () -. before in
  let major = (Gc.quick_stat ()).Gc.major_words -. major_before in
  (minor +. major) /. float_of_int rounds

let test_capture_allocation_flat () =
  let small = capture_words 1024 and large = capture_words 65536 in
  if large > small +. 1. then
    Alcotest.failf "capture allocates %.0f words on a 64k-word pool vs %.0f on 1k" large small;
  if small > 512. then Alcotest.failf "capture allocates %.0f words for 8 touched words" small

(* ------------------------------------------------------------------ *)
(* Budget 1 confirms a real inconsistency on the base image.           *)
(* ------------------------------------------------------------------ *)

let test_base_image_confirms () =
  let target = Workloads.Figure1.target in
  let seed = Pmrace.Seed.gen (Sched.Rng.create 3) target.profile in
  let engine = Pmrace.Engine.create target in
  let rec confirming s =
    if s > 400 then Alcotest.fail "no confirming campaign within 400 seeds"
    else
      let input =
        Pmrace.Campaign.input ~sched_seed:s ~policy:Pmrace.Campaign.Random_sched target seed
      in
      let r = Pmrace.Campaign.run ~engine input in
      match Runtime.Checkers.inconsistencies r.env.Runtime.Env.checkers with
      | inc :: _ -> inc
      | [] -> confirming (s + 1)
  in
  let inc = confirming 1 in
  match Post.validate (Post.ctx target) (Post.Candidate.Inconsistency inc) with
  | Post.Bug { image_index = 0; _ } -> ()
  | v -> Alcotest.failf "expected Bug on the base image, got %a" Post.pp_verdict v

(* ------------------------------------------------------------------ *)
(* End to end: the planted torn store needs an enumerated image.       *)
(* ------------------------------------------------------------------ *)

let torn = Workloads.Tornstore.target

let torn_session ~crash_images =
  let cfg = Pmrace.Fuzzer.Config.make ~max_campaigns:60 ~crash_images () in
  (cfg, Pmrace.Fuzzer.run torn cfg)

let found_105 session =
  Pmrace.Fuzzer.found_known_bugs session torn
  |> List.exists (fun ((kb : Pmrace.Target.known_bug), found) -> kb.kb_id = 105 && found)

let test_torn_store_needs_enumeration () =
  let _, s1 = torn_session ~crash_images:1 in
  Alcotest.(check bool) "missed at the default budget" false (found_105 s1);
  let cfg4, s4 = torn_session ~crash_images:4 in
  Alcotest.(check bool) "found at --crash-images 4" true (found_105 s4);
  (* The artifact records which enumerated image reproduced the bug... *)
  let art = Pmrace.Artifact.of_session ~target:torn ~cfg:cfg4 s4 in
  let bug_idx, bug =
    match
      List.mapi (fun i b -> (i, b)) art.a_bugs
      |> List.find_opt (fun (_, (b : Pmrace.Artifact.bug)) ->
             String.equal b.b_site "tornstore.c:store_b" && b.b_image_index <> None)
    with
    | Some ib -> ib
    | None -> Alcotest.fail "no torn-store bug group with a recorded image index"
  in
  (match bug.b_image_index with
  | Some i when i > 0 -> ()
  | idx ->
      Alcotest.failf "expected a positive image index, got %s"
        (match idx with Some i -> string_of_int i | None -> "none"));
  (* ...survives the JSON round-trip... *)
  (match Pmrace.Artifact.of_json (Pmrace.Artifact.to_json art) with
  | Ok art' ->
      let b' = List.nth art'.a_bugs bug_idx in
      Alcotest.(check bool) "image index round-trips" true (b'.b_image_index = bug.b_image_index)
  | Error e -> Alcotest.failf "artifact round-trip failed: %s" e);
  (* ...and replay rebuilds exactly that image. *)
  match Pmrace.Replay.replay_bug ~target:torn ~artifact:art ~bug:bug_idx with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "bug reproduced" true o.r_reproduced;
      Alcotest.(check bool) "reproduced on the recorded image" true
        (o.r_image_index = bug.b_image_index)

(* ------------------------------------------------------------------ *)
(* A worker captures only for findings it does not know yet.            *)
(* ------------------------------------------------------------------ *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module J = Obs.Json

let captures_total () =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r with
      | { r_name = "crash_captures_total"; r_labels = []; r_value = Counter n } -> n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* [Fuzzer.run]'s worker pool with every worker's capture value given:
   [Runtime.Checkers.all] is the reference that captures for every
   finding, as every session did before the filter. *)
let session_with ~capture target (cfg : Fuzzer.config) =
  let setup = Fuzzer.setup target cfg in
  let hub = Fuzzer.setup_hub setup in
  let sink =
    {
      Fuzzer.sk_budget_left = (fun () -> Pmrace.Hub.budget_left hub);
      sk_reserve = Pmrace.Hub.reserve hub;
      sk_commit = Pmrace.Hub.commit hub;
    }
  in
  let workers =
    Array.init cfg.workers (fun widx -> Fuzzer.create_worker ~capture ~sink ~widx setup)
  in
  if cfg.workers = 1 then Fuzzer.worker_loop workers.(0)
  else
    Array.map (fun w -> Domain.spawn (fun () -> Fuzzer.worker_loop w)) workers
    |> Array.iter Domain.join;
  Fuzzer.assemble_session ~worker_campaigns:(Array.map Fuzzer.campaigns_done workers) setup

let first_sightings (s : Fuzzer.session) =
  Report.findings s.report @ Report.sync_findings s.report

(* Everything a session reports that a surface could reach: its first
   sightings in order with their verdicts (image index included), its
   bug groups, and its artifact without metrics or timings. *)
let observed target cfg (s : Fuzzer.session) =
  let finding (f : Report.finding) =
    Printf.sprintf "%d %s %s>%s %s" f.found_at
      (Report.kind_slug (Report.kind f))
      (Report.site f) (Report.read_site f)
      (match f.verdict with Some v -> Fmt.str "%a" Post.pp_verdict v | None -> "-")
  in
  let rec strip = function
    | J.Obj fields ->
        J.Obj
          (List.filter_map
             (fun (k, v) ->
               match v with
               | J.Float _ -> None
               | _ when String.equal k "metrics" -> None
               | _ -> Some (k, strip v))
             fields)
    | J.List l -> J.List (List.map strip l)
    | v -> v
  in
  ( List.map finding (first_sightings s),
    List.map (Fmt.str "%a" Report.pp_bug_group) (Report.bug_groups s.report),
    J.to_string (strip (Pmrace.Artifact.to_json (Pmrace.Artifact.of_session ~target ~cfg s))) )

let surface_arms =
  let base = Fuzzer.Config.make ~max_campaigns:30 ~master_seed:5 in
  [
    ("pmrace", base ());
    ("delay", base ~mode:Fuzzer.Mode_delay ());
    ("random", base ~mode:Fuzzer.Mode_random ());
    ("por", base ~por:true ());
    ("crash-images 4", base ~crash_images:4 ());
    ("eadr", base ~eadr:true ());
  ]

(* Under every arm, a one-worker session whose engine captures only for
   unknown findings reports exactly what a capture-all session reports,
   and requests one surface per first sighting.  Two workers race on the
   hub, so no two of their sessions need agree; there each worker's set
   is stale by the other's findings, which must only capture more: every
   first sighting still has its surface. *)
let test_known_findings_differential (target : Pmrace.Target.t) () =
  let enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled enabled) @@ fun () ->
  List.iter
    (fun (arm, cfg) ->
      let label = Printf.sprintf "%s, %s" target.name arm in
      let before = captures_total () in
      let s = Fuzzer.run target cfg in
      let captures = captures_total () - before in
      let reference = session_with ~capture:Runtime.Checkers.all target cfg in
      let findings, groups, artifact = observed target cfg s
      and findings', groups', artifact' = observed target cfg reference in
      Alcotest.(check (list string)) (label ^ ": findings and verdicts") findings' findings;
      Alcotest.(check (list string)) (label ^ ": bug groups") groups' groups;
      Alcotest.(check string) (label ^ ": artifact") artifact' artifact;
      Alcotest.(check int)
        (label ^ ": one capture per first sighting")
        (List.length (first_sightings s))
        captures)
    surface_arms;
  let cfg = Fuzzer.Config.make ~max_campaigns:30 ~master_seed:5 ~workers:2 () in
  let before = captures_total () in
  let s = Fuzzer.run target cfg in
  let captures = captures_total () - before in
  let label = target.name ^ ", workers 2" in
  List.iter
    (fun (f : Report.finding) ->
      let captured =
        match f.subject with
        | Report.Inconsistency i -> i.crash <> None
        | Report.Sync e -> e.sy_crash <> None
        | Report.Invariant _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s has a surface" label (Report.site f))
        true captured)
    (first_sightings s);
  Alcotest.(check bool)
    (label ^ ": at least one capture per first sighting")
    true
    (captures >= List.length (first_sightings s))

let suite =
  [
    Alcotest.test_case "quiesced pool: single image" `Quick test_quiesced_pool_single_image;
    Alcotest.test_case "two-line enumeration order" `Quick test_two_line_enumeration;
    Alcotest.test_case "mixed line: radix 3" `Quick test_mixed_line_radix_three;
    Alcotest.test_case "no-op drains filtered" `Quick test_noop_drains_filtered;
    QCheck_alcotest.to_alcotest prop_images_fence_consistent;
    QCheck_alcotest.to_alcotest prop_index_zero_is_base_image;
    Alcotest.test_case "budget 1 confirms on the base image" `Quick test_base_image_confirms;
    Alcotest.test_case "torn store needs enumeration (e2e)" `Quick
      test_torn_store_needs_enumeration;
    QCheck_alcotest.to_alcotest prop_surfaces_fresh_pool;
    QCheck_alcotest.to_alcotest prop_surfaces_checkpoint_pool;
    QCheck_alcotest.to_alcotest prop_surfaces_booted_pool;
    QCheck_alcotest.to_alcotest prop_crash_boots_from_checkpoint;
    Alcotest.test_case "one surface per pool instant" `Quick test_same_instant_shared;
    Alcotest.test_case "capture allocation is O(touched)" `Quick test_capture_allocation_flat;
  ]
  @ List.map
      (fun (t : Pmrace.Target.t) ->
        Alcotest.test_case ("surfaces for unknown findings ≡ capture-all: " ^ t.name) `Slow
          (test_known_findings_differential t))
      (Workloads.Registry.with_examples @ Workloads.Registry.planted)
