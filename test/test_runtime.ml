(* Instrumented runtime: instruction registry, DRAM store, memory hooks,
   candidate creation, taint through shadow memory, locks. *)

module Instr = Runtime.Instr
module Tval = Runtime.Tval
module Taint = Runtime.Taint
module Env = Runtime.Env
module Mem = Runtime.Mem
module Dram = Runtime.Dram
module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates

let mk () = Env.create ~pool_words:512 ()

let test_instr_registry () =
  let a = Instr.site "test_runtime:a" in
  let a' = Instr.site "test_runtime:a" in
  let b = Instr.site "test_runtime:b" in
  Alcotest.(check bool) "memoised" true (Instr.equal a a');
  Alcotest.(check bool) "distinct" false (Instr.equal a b);
  Alcotest.(check string) "name roundtrip" "test_runtime:a" (Instr.name a);
  Alcotest.(check bool) "of_int roundtrip" true (Instr.equal a (Instr.of_int (Instr.to_int a)));
  Alcotest.check_raises "of_int unknown"
    (Invalid_argument (Printf.sprintf "Instr.of_int: unknown id %d" 99999)) (fun () ->
      ignore (Instr.of_int 99999));
  Alcotest.check_raises "of_int negative"
    (Invalid_argument "Instr.of_int: unknown id -1") (fun () -> ignore (Instr.of_int (-1)))

let test_dram () =
  let d = Dram.create () in
  let k1 : int Dram.key = Dram.key ~name:"k1" () in
  let k2 : string Dram.key = Dram.key ~name:"k2" () in
  Alcotest.(check (option int)) "missing" None (Dram.find d k1);
  Dram.set d k1 42;
  Dram.set d k2 "hello";
  Alcotest.(check (option int)) "typed get" (Some 42) (Dram.find d k1);
  Alcotest.(check (option string)) "typed get 2" (Some "hello") (Dram.find d k2);
  Dram.set d k1 7;
  Alcotest.(check (option int)) "overwrite" (Some 7) (Dram.find d k1);
  Alcotest.(check int) "find_or_add existing" 7 (Dram.find_or_add d k1 (fun () -> 0));
  Dram.clear d;
  Alcotest.(check (option int)) "cleared" None (Dram.find d k1)

let i_w = Instr.site "test_runtime:w"
let i_r = Instr.site "test_runtime:r"
let i_e = Instr.site "test_runtime:e"

let test_load_store_roundtrip () =
  let env = mk () in
  let ctx = Env.ctx env ~tid:0 in
  Mem.store ctx ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  Alcotest.(check int) "roundtrip" 7 (Tval.to_int (Mem.load ctx ~instr:i_r (Tval.of_int 100)))

let test_candidate_on_dirty_read () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Alcotest.(check bool) "tainted" true (Tval.is_tainted v);
  Alcotest.(check int) "one inter candidate" 1
    (Candidates.unique_count (Checkers.candidates env.checkers) Candidates.Inter);
  (* Same-thread read: intra candidate. *)
  let _ = Mem.load c0 ~instr:i_r (Tval.of_int 100) in
  Alcotest.(check int) "one intra candidate" 1
    (Candidates.unique_count (Checkers.candidates env.checkers) Candidates.Intra)

let test_candidate_unique_dedup () =
  (* The same (write-site, read-site) pair hit twice: two dynamic
     candidates, one unique pair. *)
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  for _ = 1 to 2 do
    Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
    ignore (Mem.load c1 ~instr:i_r (Tval.of_int 100))
  done;
  let cands = Checkers.candidates env.checkers in
  Alcotest.(check int) "dynamic 2" 2 (Candidates.dynamic_count cands);
  Alcotest.(check int) "unique 1" 1 (Candidates.unique_count cands Candidates.Inter);
  match Candidates.unique cands Candidates.Inter with
  | [ c ] ->
      Alcotest.(check bool) "write site" true (Instr.equal c.Candidates.write_instr i_w);
      Alcotest.(check bool) "read site" true (Instr.equal c.Candidates.read_instr i_r)
  | l -> Alcotest.failf "expected 1 unique candidate, got %d" (List.length l)

let test_clean_read_untainted () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  Mem.persist c0 ~instr:i_w (Tval.of_int 100);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Alcotest.(check bool) "clean read untainted" false (Tval.is_tainted v);
  Alcotest.(check int) "no candidates" 0
    (Candidates.dynamic_count (Checkers.candidates env.checkers))

let test_taint_through_shadow_memory () =
  (* Tainted value stored to PM, loaded back: the taint persists. *)
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let dirty = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.store c1 ~instr:i_e (Tval.of_int 200) dirty;
  Mem.persist c1 ~instr:i_e (Tval.of_int 200);
  let back = Mem.load c1 ~instr:i_r (Tval.of_int 200) in
  Alcotest.(check bool) "taint survives PM roundtrip" true (Tval.is_tainted back)

let test_inconsistency_value_flow () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.store c1 ~instr:i_e (Tval.of_int 200) v;
  Mem.persist c1 ~instr:i_e (Tval.of_int 200);
  match Checkers.inconsistencies env.checkers with
  | [ inc ] ->
      Alcotest.(check string) "write site" "test_runtime:w"
        (Instr.name inc.source.Candidates.write_instr);
      Alcotest.(check bool) "value flow" false inc.addr_flow;
      Alcotest.(check bool) "image captured" true (inc.crash <> None)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 inconsistency, got %d" (List.length l))

let test_inconsistency_addr_flow () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 256);
  let p = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.store c1 ~instr:i_e p (Tval.of_int 1);
  Mem.persist c1 ~instr:i_e p;
  match Checkers.inconsistencies env.checkers with
  | [ inc ] -> Alcotest.(check bool) "addr flow" true inc.addr_flow
  | _ -> Alcotest.fail "expected 1 inconsistency"

let test_window_closed_no_inconsistency () =
  (* If the source is flushed before the dependent write persists, there is
     no crash window, hence no inconsistency. *)
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.store c1 ~instr:i_e (Tval.of_int 200) v;
  Mem.persist c0 ~instr:i_w (Tval.of_int 100) (* source persisted first *);
  Mem.persist c1 ~instr:i_e (Tval.of_int 200);
  Alcotest.(check int) "no inconsistency" 0
    (List.length (Checkers.inconsistencies env.checkers));
  Alcotest.(check int) "but the candidate was seen" 1
    (Candidates.unique_count (Checkers.candidates env.checkers) Candidates.Inter)

let test_unpersisted_effect_no_inconsistency () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.store c1 ~instr:i_e (Tval.of_int 200) v;
  (* no flush of the dependent write *)
  Alcotest.(check int) "no inconsistency without durability" 0
    (List.length (Checkers.inconsistencies env.checkers))

let test_external_effect () =
  let env = mk () in
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  Mem.external_effect c1 ~instr:i_e v;
  match Checkers.inconsistencies env.checkers with
  | [ inc ] -> Alcotest.(check bool) "external" true inc.external_effect
  | _ -> Alcotest.fail "expected 1 external inconsistency"

let test_sync_events () =
  let env = mk () in
  Env.annotate_sync env ~name:"test:lock" ~addr:64 ~len:1 ~init:0L;
  let ctx = Env.ctx env ~tid:0 in
  Mem.store ctx ~instr:i_w (Tval.of_int 64) Tval.one;
  Alcotest.(check int) "not persisted yet" 0
    (List.length (Checkers.sync_events env.checkers));
  Mem.persist ctx ~instr:i_w (Tval.of_int 64);
  (match Checkers.sync_events env.checkers with
  | [ ev ] ->
      Alcotest.(check string) "var" "test:lock" ev.var.Checkers.sv_name;
      Alcotest.(check int64) "value" 1L ev.sy_value
  | _ -> Alcotest.fail "expected 1 sync event");
  (* Re-persisting the same value type is recorded once. *)
  Mem.store ctx ~instr:i_w (Tval.of_int 64) Tval.one;
  Mem.persist ctx ~instr:i_w (Tval.of_int 64);
  Alcotest.(check int) "deduplicated per value" 1
    (List.length (Checkers.sync_events env.checkers));
  (* Persisting the init value is not an event. *)
  Mem.store ctx ~instr:i_w (Tval.of_int 64) Tval.zero;
  Mem.persist ctx ~instr:i_w (Tval.of_int 64);
  Alcotest.(check int) "init value is benign" 1
    (List.length (Checkers.sync_events env.checkers))

let test_cas () =
  let env = mk () in
  let ctx = Env.ctx env ~tid:0 in
  Alcotest.(check bool) "cas succeeds" true
    (Mem.cas ctx ~instr:i_w (Tval.of_int 100) ~expect:Tval.zero ~value:Tval.one);
  Alcotest.(check bool) "cas fails" false
    (Mem.cas ctx ~instr:i_w (Tval.of_int 100) ~expect:Tval.zero ~value:Tval.one);
  Alcotest.(check int) "value" 1 (Tval.to_int (Mem.load ctx ~instr:i_r (Tval.of_int 100)))

let test_cas_nt_is_clean () =
  let env = mk () in
  let ctx = Env.ctx env ~tid:0 in
  ignore (Mem.cas ~nt:true ctx ~instr:i_w (Tval.of_int 100) ~expect:Tval.zero ~value:Tval.one);
  Alcotest.(check bool) "nt cas never dirty" false (Pmem.Pool.is_dirty env.pool 100)

let test_spin_lock_stuck () =
  let env = mk () in
  let ctx = Env.ctx env ~tid:0 in
  Mem.spin_lock ctx ~instr:i_w (Tval.of_int 100);
  match Mem.spin_lock ctx ~instr:i_w (Tval.of_int 100) with
  | () -> Alcotest.fail "expected Stuck"
  | exception Mem.Stuck _ -> ()

(* The one rewind, an engine checkout, drops the campaign's checker state
   but keeps the target's sync-variable annotations: [Env.boot] empties
   the checkers and the checkout re-annotates. *)
let test_reset_keeps_annotations () =
  let engine = Pmrace.Engine.create Workloads.Figure1.target in
  let env = Pmrace.Engine.checkout engine in
  Alcotest.(check int) "annotated at checkout" 1 (Checkers.annotation_count env.checkers);
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 8) Tval.one;
  ignore (Mem.load c1 ~instr:i_r (Tval.of_int 8));
  Alcotest.(check bool) "campaign made candidates" true
    (Candidates.dynamic_count (Checkers.candidates env.checkers) > 0);
  let env = Pmrace.Engine.checkout engine in
  Alcotest.(check int) "candidates cleared" 0
    (Candidates.dynamic_count (Checkers.candidates env.checkers));
  Alcotest.(check int) "annotations kept" 1 (Checkers.annotation_count env.checkers)

let test_eviction_confirms () =
  (* An eviction (instead of an explicit fence) can also persist a
     dependent write and confirm the inconsistency. *)
  let env = mk () in
  env.evict_prob <- 1.0;
  env.evict_rng <- Sched.Rng.create 3;
  let c0 = Env.ctx env ~tid:0 and c1 = Env.ctx env ~tid:1 in
  Mem.store c0 ~instr:i_w (Tval.of_int 100) (Tval.of_int 7);
  let v = Mem.load c1 ~instr:i_r (Tval.of_int 100) in
  (* Repeated dependent stores: with eviction probability 1 some line gets
     evicted after each store; eventually the dependent word persists. *)
  for i = 0 to 60 do
    if Pmem.Pool.is_dirty env.pool 100 then
      Mem.store c1 ~instr:i_e (Tval.of_int (200 + (8 * (i mod 8)))) v
  done;
  Alcotest.(check bool) "eviction-confirmed inconsistency" true
    (Checkers.inconsistencies env.checkers <> []
    || not (Pmem.Pool.is_dirty env.pool 100))

(* [persist_range] flushes every line the range touches, once, whatever
   the base's offset in its line, and fences once. *)
let test_persist_range () =
  let check ~base ~words ~lines =
    let env = mk () in
    let ctx = Env.ctx env ~tid:0 in
    let flushed = ref [] and fences = ref 0 in
    Env.add_listener env (function
      | Env.Ev_clwb { addr; _ } -> flushed := addr :: !flushed
      | Env.Ev_fence _ -> incr fences
      | _ -> ());
    for w = base to base + words - 1 do
      Mem.store ctx ~instr:i_w (Tval.of_int w) (Tval.of_int (w + 1))
    done;
    Mem.persist_range ctx ~instr:i_w (Tval.of_int base) ~words;
    let name = Printf.sprintf "base %d, %d words" base words in
    for w = base to base + words - 1 do
      Alcotest.(check bool) (Printf.sprintf "%s: word %d clean" name w) false
        (Pmem.Pool.is_dirty env.pool w);
      Alcotest.(check bool) (Printf.sprintf "%s: word %d durable" name w) true
        (Pmem.Pool.is_durably_equal env.pool w)
    done;
    Alcotest.(check (list int)) (name ^ ": one clwb per line touched") lines
      (List.rev !flushed);
    Alcotest.(check int) (name ^ ": one fence") 1 !fences
  in
  check ~base:16 ~words:16 ~lines:[ 16; 24 ];
  check ~base:6 ~words:4 ~lines:[ 0; 8 ];
  check ~base:13 ~words:12 ~lines:[ 8; 16; 24 ];
  check ~base:7 ~words:1 ~lines:[ 0 ];
  check ~base:40 ~words:0 ~lines:[]

(* Both policy hooks of an operation receive its footprint, the same
   value: the kind of access and the word (a flush: the line) it
   touches. *)
let test_policy_footprints () =
  let module Fp = Runtime.Footprint in
  let env = mk () in
  let ctx = Env.ctx env ~tid:0 in
  let fp = Alcotest.testable Fp.pp Int.equal in
  let seen = ref [] and pending = ref None in
  Env.set_policy env
    {
      Env.before = (fun _ f -> pending := Some f);
      after =
        (fun _ f ->
          Alcotest.(check (option fp)) "after sees before's footprint" !pending (Some f);
          pending := None;
          seen := f :: !seen);
    };
  let expect label want op =
    seen := [];
    op ();
    Alcotest.(check (list fp)) label want (List.rev !seen)
  in
  let w = 70 (* word 6 of line 8 *) and line_word l = l * Pmem.Cacheline.words_per_line in
  let at = Tval.of_int w in
  expect "load" [ Fp.load w ] (fun () -> ignore (Mem.load ctx ~instr:i_r at));
  expect "store" [ Fp.store w ] (fun () -> Mem.store ctx ~instr:i_w at (Tval.of_int 1));
  expect "movnt" [ Fp.store w ] (fun () -> Mem.movnt ctx ~instr:i_w at (Tval.of_int 2));
  List.iter
    (fun nt ->
      let cas ~ok old value =
        expect
          (Printf.sprintf "cas nt:%b %s" nt (if ok then "succeeding" else "failing"))
          [ Fp.rw w ]
          (fun () ->
            Alcotest.(check bool) "cas outcome" ok
              (Mem.cas ~nt ctx ~instr:i_w at ~expect:(Tval.of_int old) ~value:(Tval.of_int value)))
      in
      let cur = Int64.to_int (Pmem.Pool.load env.pool w) in
      cas ~ok:true cur (cur + 1);
      cas ~ok:false cur (cur + 2))
    [ false; true ];
  expect "clwb of a mid-line word" [ Fp.flush (line_word 8) ] (fun () -> Mem.clwb ctx ~instr:i_w at);
  expect "sfence" [ Fp.fence ] (fun () -> Mem.sfence ctx ~instr:i_w);
  expect "persist_range: one flush per line, then a fence"
    [ Fp.flush (line_word 7); Fp.flush (line_word 8); Fp.flush (line_word 9); Fp.fence ]
    (fun () -> Mem.persist_range ctx ~instr:i_w (Tval.of_int 61) ~words:12)

let suite =
  [
    Alcotest.test_case "instruction registry" `Quick test_instr_registry;
    Alcotest.test_case "dram typed store" `Quick test_dram;
    Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
    Alcotest.test_case "candidate on dirty read" `Quick test_candidate_on_dirty_read;
    Alcotest.test_case "candidate dedup by site pair" `Quick test_candidate_unique_dedup;
    Alcotest.test_case "clean read untainted" `Quick test_clean_read_untainted;
    Alcotest.test_case "taint through shadow memory" `Quick test_taint_through_shadow_memory;
    Alcotest.test_case "inconsistency: value flow" `Quick test_inconsistency_value_flow;
    Alcotest.test_case "inconsistency: addr flow" `Quick test_inconsistency_addr_flow;
    Alcotest.test_case "window closed: benign" `Quick test_window_closed_no_inconsistency;
    Alcotest.test_case "unpersisted effect: benign" `Quick test_unpersisted_effect_no_inconsistency;
    Alcotest.test_case "external durable effect" `Quick test_external_effect;
    Alcotest.test_case "sync-variable events" `Quick test_sync_events;
    Alcotest.test_case "cas" `Quick test_cas;
    Alcotest.test_case "cas nt is clean" `Quick test_cas_nt_is_clean;
    Alcotest.test_case "spin lock stuck" `Quick test_spin_lock_stuck;
    Alcotest.test_case "reset keeps annotations" `Quick test_reset_keeps_annotations;
    Alcotest.test_case "eviction can confirm" `Quick test_eviction_confirms;
    Alcotest.test_case "persist_range: every line touched" `Quick test_persist_range;
    Alcotest.test_case "policy hooks see each operation's footprint" `Quick test_policy_footprints;
  ]
