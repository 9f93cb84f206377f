(* The persistent-mode execution engine: O(touched) context reuse, the
   fresh mode behind the same API, and — the core invariant —
   cross-campaign isolation: a reused context produces campaigns
   bit-identical to fresh-environment runs, even after an adversarial
   campaign dirtied every layer of state it can reach. *)

module Engine = Pmrace.Engine
module Campaign = Pmrace.Campaign
module Seed = Pmrace.Seed
module Pool = Pmem.Pool
module Env = Runtime.Env
module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates
module Dram = Runtime.Dram

(* Everything observable about a campaign, for bit-identity comparison:
   both pool images, candidates, inconsistencies, sync events, pending
   side effects, and the scheduler outcome. *)
type fingerprint = {
  f_volatile : int64 array;
  f_durable : int64 array;
  f_cands : (int * Candidates.kind * int * int * int * int * int) list;
  f_incs : (int * int * int * bool * bool * int list) list;
  f_syncs : (string * int * int64) list;
  f_pending : (int * int * int) list;
  f_steps : int;
  f_finished : int list;
  f_hung : bool;
}

let fingerprint (r : Campaign.result) =
  let env = r.env in
  let pool = env.Env.pool in
  let ck = env.Env.checkers in
  let cand (c : Candidates.cand) =
    ( c.id,
      c.kind,
      c.addr,
      Runtime.Instr.to_int c.read_instr,
      c.read_tid,
      Runtime.Instr.to_int c.write_instr,
      c.write_tid )
  in
  {
    f_volatile = Array.init (Pool.size pool) (Pool.peek pool);
    f_durable = Array.init (Pool.size pool) (Pool.image_word (Pool.crash_image pool));
    f_cands =
      List.map cand
        (Candidates.unique (Checkers.candidates ck) Candidates.Inter
        @ Candidates.unique (Checkers.candidates ck) Candidates.Intra);
    f_incs =
      List.map
        (fun (i : Checkers.inconsistency) ->
          ( i.source.Candidates.id,
            i.eff_addr,
            i.eff_tid,
            i.addr_flow,
            i.external_effect,
            i.eff_words ))
        (Checkers.inconsistencies ck);
    f_syncs =
      List.map
        (fun (s : Checkers.sync_event) -> (s.var.Checkers.sv_name, s.sy_addr, s.sy_value))
        (Checkers.sync_events ck);
    f_pending =
      List.map
        (fun (e : Checkers.side_effect) ->
          (e.se_addr, Runtime.Instr.to_int e.se_instr, e.se_tid))
        (Checkers.pending_effects ck);
    f_steps = r.outcome.steps;
    f_finished = List.sort compare r.outcome.finished;
    f_hung = r.hung;
  }

let check_fp msg a b =
  Alcotest.(check bool) (msg ^ ": volatile image") true (a.f_volatile = b.f_volatile);
  Alcotest.(check bool) (msg ^ ": durable image") true (a.f_durable = b.f_durable);
  Alcotest.(check bool) (msg ^ ": candidates") true (a.f_cands = b.f_cands);
  Alcotest.(check bool) (msg ^ ": inconsistencies") true (a.f_incs = b.f_incs);
  Alcotest.(check bool) (msg ^ ": sync events") true (a.f_syncs = b.f_syncs);
  Alcotest.(check bool) (msg ^ ": pending effects") true (a.f_pending = b.f_pending);
  Alcotest.(check int) (msg ^ ": scheduler steps") a.f_steps b.f_steps;
  Alcotest.(check (list int)) (msg ^ ": finished tids") a.f_finished b.f_finished;
  Alcotest.(check bool) (msg ^ ": hung") a.f_hung b.f_hung

(* A deterministic batch of campaign inputs for one target. *)
let inputs (target : Pmrace.Target.t) n =
  let rng = Sched.Rng.create 99 in
  List.init n (fun _ ->
      let seed = Seed.gen rng target.Pmrace.Target.profile in
      let sched_seed = Sched.Rng.int rng 1_000_000_000 in
      Campaign.input ~sched_seed ~policy:Campaign.Random_sched target seed)

(* Dirty every layer of reusable state the engine hands out: pool words
   (left dirty AND pending), DRAM keys, taint labels, checker state
   (candidates, pending effects, sync annotations), the policy, a
   transient listener (counting into [leaked], which must stay 0), the
   eviction probability and the pool's eADR setting. *)
let adversarial_key : int Dram.key = Dram.key ~name:"test-engine-adversary" ()

let vandalise leaked (env : Env.t) =
  let pool = env.Env.pool in
  for w = 0 to Pool.size pool - 1 do
    Pool.store pool ~tid:9 ~instr:0 w 0xDEADBEEFL
  done;
  Pool.clwb pool 0 (* leave line 0 pending, the rest dirty *);
  Dram.set env.Env.dram adversarial_key 12345;
  Env.set_mem_taint env 7 (Runtime.Taint.singleton 41);
  Env.annotate_sync env ~name:"bogus-var" ~addr:3 ~len:1 ~init:77L;
  ignore
    (Checkers.on_load env.Env.checkers pool ~tid:9 ~instr:(Runtime.Instr.of_int 0) ~addr:1);
  Env.set_policy env Env.preempt_policy;
  Env.add_listener env (fun _ -> incr leaked);
  env.Env.evict_prob <- 1.0;
  Pool.set_eadr pool true

(* Campaign B on a reused engine context must be bit-identical to the same
   campaign on a fresh environment — even when campaign A was followed by
   direct vandalism of every mutable layer. *)
let test_isolation (target : Pmrace.Target.t) () =
  match inputs target 3 with
  | [ a; b; c ] ->
      let engine = Engine.create ~use_checkpoint:true target in
      let leaked = ref 0 in
      (* Reference: each campaign in its own fresh environment, built by
         the target's initialisation. *)
      let reference = Engine.create ~use_checkpoint:false target in
      let fresh i = fingerprint (Campaign.run ~engine:reference i) in
      let ref_a = fresh a and ref_b = fresh b and ref_c = fresh c in
      let r_a = Campaign.run ~engine a in
      check_fp "campaign A (engine vs fresh)" ref_a (fingerprint r_a);
      vandalise leaked r_a.Campaign.env;
      let r_b = Campaign.run ~engine b in
      check_fp "campaign B after vandalism" ref_b (fingerprint r_b);
      vandalise leaked r_b.Campaign.env;
      let r_c = Campaign.run ~engine c in
      check_fp "campaign C after vandalism" ref_c (fingerprint r_c);
      Alcotest.(check int) "vandal listeners never ran" 0 !leaked;
      Alcotest.(check int) "engine served all checkouts" 3 (Engine.checkouts engine)
  | _ -> assert false

(* Fresh mode (Figure 10's reference arm): one engine serving many
   checkouts matches the legacy one-environment-per-campaign construction,
   here a brand-new engine per campaign, so nothing leaks between
   fresh-mode checkouts. *)
let test_fresh_mode_identical () =
  let target = Workloads.Figure1.target in
  let engine = Engine.create ~use_checkpoint:false target in
  Alcotest.(check bool) "fresh mode" false (Engine.persistent engine);
  List.iter
    (fun i ->
      let legacy =
        fingerprint (Campaign.run ~engine:(Engine.create ~use_checkpoint:false target) i)
      in
      let engined = fingerprint (Campaign.run ~engine i) in
      check_fp "fresh-mode checkout" legacy engined)
    (inputs target 3);
  Alcotest.(check int) "engine served all checkouts" 3 (Engine.checkouts engine)

(* Every target defaults to the persistent engine; use_checkpoint:false
   still yields a fresh one. *)
let test_mode_default () =
  List.iter
    (fun (target : Pmrace.Target.t) ->
      Alcotest.(check bool)
        (target.name ^ " defaults to persistent")
        true
        (Engine.persistent (Engine.create target));
      Alcotest.(check bool)
        (target.name ^ " use_checkpoint:false is fresh")
        false
        (Engine.persistent (Engine.create ~use_checkpoint:false target)))
    (Workloads.Registry.with_examples @ Workloads.Registry.planted)

(* The acceptance criterion: persistent-mode reset work is proportional to
   the words the campaign touched, not the pool size. *)
let test_reset_o_touched () =
  let target = Workloads.Pclht.target in
  let engine = Engine.create ~use_checkpoint:true target in
  let i = List.hd (inputs target 1) in
  ignore (Campaign.run ~engine i);
  ignore (Campaign.run ~engine i);
  let touched = Engine.last_reset_touched engine in
  Alcotest.(check bool) "campaign touched something" true (touched > 0);
  Alcotest.(check bool)
    (Printf.sprintf "reset undid %d words, well under the %d-word pool" touched
       target.Pmrace.Target.pool_words)
    true
    (touched < target.Pmrace.Target.pool_words / 2)

(* Transient listeners attached for one campaign must be gone after the
   next checkout. *)
let test_transient_listeners_cleared () =
  let target = Workloads.Pclht.target in
  let engine = Engine.create ~use_checkpoint:true target in
  let i = List.hd (inputs target 1) in
  let hits = ref 0 in
  let listener env = Env.add_listener env (fun _ -> incr hits) in
  ignore (Campaign.run ~engine ~listeners:[ listener ] i);
  let first = !hits in
  Alcotest.(check bool) "listener observed campaign 1" true (first > 0);
  ignore (Campaign.run ~engine i);
  Alcotest.(check int) "listener detached by next checkout" first !hits

(* With a deterministic init, checkpoint-on and checkpoint-off engines
   yield bit-identical campaigns: booting the checkpoint (both images,
   all-clean metadata) makes the two pool setups indistinguishable.  This
   holds under eviction too: both modes initialise with eviction off and
   start every campaign from the reseeded eviction RNG, so a fresh-mode
   init draws nothing from the campaign's stream.  Under eADR both run the
   campaign on an eADR pool. *)
let test_checkpoint_on_off_identical ?(evict_prob = 0.) ?(eadr = false) (target : Pmrace.Target.t)
    n () =
  let on = Engine.create ~evict_prob ~eadr ~use_checkpoint:true target in
  let off = Engine.create ~evict_prob ~eadr ~use_checkpoint:false target in
  List.iteri
    (fun k i ->
      check_fp
        (Printf.sprintf "campaign %d: checkpoint on ≡ off" k)
        (fingerprint (Campaign.run ~engine:on i))
        (fingerprint (Campaign.run ~engine:off i)))
    (inputs target n)

(* One checkpoint shared by two engines, one under eviction and one under
   eADR, as a session's workers share it.  [boot] only reads the image and
   trusts that it never changes: after many checkouts each, every one
   followed by vandalism of the whole pool, the image must still hold,
   word for word, what the target's initialisation produced, and every
   campaign must match a fresh-mode one. *)
let test_shared_checkpoint_unchanged () =
  let target = Workloads.Pclht.target in
  let image = Engine.checkpoint target in
  let settings = [ (0.3, false); (0., true) ] in
  let leaked = ref 0 in
  let engines =
    List.map
      (fun (evict_prob, eadr) ->
        ( Engine.create ~evict_prob ~eadr ~checkpoint:image target,
          Engine.create ~evict_prob ~eadr ~use_checkpoint:false target ))
      settings
  in
  List.iteri
    (fun k i ->
      List.iter
        (fun (shared, fresh) ->
          let r = Campaign.run ~engine:shared i in
          check_fp
            (Printf.sprintf "campaign %d: shared checkpoint ≡ fresh" k)
            (fingerprint (Campaign.run ~engine:fresh i))
            (fingerprint r);
          vandalise leaked r.Campaign.env)
        engines)
    (inputs target 8);
  List.iter
    (fun (shared, _) -> Alcotest.(check int) "checkouts served" 8 (Engine.checkouts shared))
    engines;
  Alcotest.(check int) "vandal listeners never ran" 0 !leaked;
  let init = Engine.checkpoint target in
  Alcotest.(check int) "image size" (Pool.image_words init) (Pool.image_words image);
  for w = 0 to Pool.image_words init - 1 do
    if not (Int64.equal (Pool.image_word init w) (Pool.image_word image w)) then
      Alcotest.failf "checkpoint word %d changed: %Ld, init produced %Ld" w
        (Pool.image_word image w) (Pool.image_word init w)
  done

let suite =
  [
    Alcotest.test_case "adversarial isolation (figure1)" `Quick
      (test_isolation Workloads.Figure1.target);
    Alcotest.test_case "adversarial isolation (p-clht)" `Slow
      (test_isolation Workloads.Pclht.target);
    Alcotest.test_case "fresh mode ≡ legacy" `Quick test_fresh_mode_identical;
    Alcotest.test_case "mode defaults to persistent" `Quick test_mode_default;
    Alcotest.test_case "reset is O(touched)" `Quick test_reset_o_touched;
    Alcotest.test_case "transient listeners cleared" `Quick test_transient_listeners_cleared;
    Alcotest.test_case "checkpoint on ≡ off (deterministic init)" `Quick
      (test_checkpoint_on_off_identical Workloads.Figure1.target 2);
    Alcotest.test_case "checkpoint on ≡ off under eviction (p-clht)" `Quick
      (test_checkpoint_on_off_identical ~evict_prob:0.2 Workloads.Pclht.target 10);
    Alcotest.test_case "checkpoint on ≡ off under eviction (memcached-pmem)" `Quick
      (test_checkpoint_on_off_identical ~evict_prob:0.2 Workloads.Memcached.target 10);
    Alcotest.test_case "checkpoint on ≡ off under eADR (figure1)" `Quick
      (test_checkpoint_on_off_identical ~eadr:true Workloads.Figure1.target 4);
    Alcotest.test_case "shared checkpoint unchanged by checkouts" `Quick
      test_shared_checkpoint_unchanged;
  ]
