(* One fuzz campaign: a single concurrent execution of a target with a
   seed, an interleaving policy, and a scheduler seed.

   The execution context always comes from the caller's {!Engine}: a
   checkout hands out a freshly initialised pool — rebuilt by the
   target's initialisation, or rewound to an in-memory checkpoint (§5) —
   with fresh checkers, so every campaign begins with an empty pool as
   §4.5 prescribes and its results only reflect the fuzzed execution.
   The engine also owns the platform knobs (image capture, eviction,
   eADR) and the reusable POR harness. *)

module Rng = Sched.Rng
module Scheduler = Sched.Scheduler
module Env = Runtime.Env

type policy_spec =
  | Pmrace of { entry : Shared_queue.entry; skip : int }
  | Delay of { prob : float; max_delay : int }
  | Random_sched (* plain preemption at every instrumented operation *)
  | No_preempt

(* Sites travel by name and re-register on decode.  The stores register
   before the loads, the order every earlier decoder used, so a process
   that meets the names here first assigns them the same ids. *)
let policy_spec_codec =
  let open Obs.Codec in
  let names = list string in
  (* A replay would otherwise accept these and fail later, inside a
     fiber: [Rng.int] rejects a bound below 1 at the first delay draw. *)
  let probability =
    conv
      (fun p -> if p >= 0. && p <= 1. then Ok p else Error "expected a probability in [0, 1]")
      Fun.id float
  in
  let delay_bound =
    conv (fun d -> if d >= 1 then Ok d else Error "expected an int >= 1") Fun.id int
  in
  variant "policy"
    [
      case "pmrace"
        (record (fun addr loads stores hits skip ->
             let stores = List.map Runtime.Instr.site stores in
             let loads = List.map Runtime.Instr.site loads in
             ({ Shared_queue.addr; loads; stores; hits }, skip))
        |+ field "addr" int (fun (e, _) -> e.Shared_queue.addr)
        |+ field "loads" names (fun (e, _) -> List.map Runtime.Instr.name e.Shared_queue.loads)
        |+ field "stores" names (fun (e, _) -> List.map Runtime.Instr.name e.Shared_queue.stores)
        |+ field "hits" int (fun (e, _) -> e.Shared_queue.hits)
        |+ field "skip" int snd)
        (function Pmrace { entry; skip } -> Some (entry, skip) | _ -> None)
        (fun (entry, skip) -> Pmrace { entry; skip });
      case "delay"
        (record (fun prob max_delay -> (prob, max_delay))
        |+ field "prob" probability fst
        |+ field "max_delay" delay_bound snd)
        (function Delay { prob; max_delay } -> Some (prob, max_delay) | _ -> None)
        (fun (prob, max_delay) -> Delay { prob; max_delay });
      constant "random" Random_sched;
      constant "none" No_preempt;
    ]

type input = {
  target : Target.t;
  seed : Seed.t;
  sched_seed : int;
  policy : policy_spec;
  step_budget : int;
  por : bool; (* sleep-set pruning + trace hashing *)
}

(* Scheduler steps one campaign may take: the default of every campaign
   input, session and pre-pass execution. *)
let default_step_budget = 60_000

let input ?(sched_seed = 1) ?(policy = Random_sched) ?(step_budget = default_step_budget)
    ?(por = false) target seed =
  { target; seed; sched_seed; policy; step_budget; por }

type result = {
  env : Env.t;
  outcome : Scheduler.outcome;
  sync : Sync_policy.t option;
  hung : bool; (* budget exhaustion or a Stuck spin lock *)
  por : Por.stats option; (* pruning provenance when the input asked for POR *)
}

let m_latency = lazy (Obs.Metrics.histogram "campaign_latency_seconds")

(* Phase split of the latency above: setup (the engine checkout) vs the
   fuzzed execution itself.  The CLI footer derives setup-bound vs
   run-bound execs/sec from these sums. *)
let m_setup = lazy (Obs.Metrics.histogram "campaign_setup_seconds")
let m_run = lazy (Obs.Metrics.histogram "campaign_run_seconds")

let run ~engine ?(listeners = []) (i : input) =
  Obs.Metrics.time (Lazy.force m_latency) @@ fun () ->
  let env = Obs.Metrics.time (Lazy.force m_setup) @@ fun () -> Engine.checkout engine in
  List.iter (fun attach -> attach env) listeners;
  Obs.Metrics.time (Lazy.force m_run) @@ fun () ->
  let rng = Rng.create i.sched_seed in
  let policy_rng = Rng.split rng in
  let nthreads = Array.length (Seed.threads i.seed) in
  let sync, policy =
    match i.policy with
    | Pmrace { entry; skip } ->
        let s = Sync_policy.create ~rng:policy_rng ~nthreads ~skip entry in
        (Some s, Sync_policy.policy s)
    | Delay { prob; max_delay } ->
        (None, Delay_policy.policy (Delay_policy.create ~prob ~max_delay ~rng:policy_rng ()))
    | Random_sched -> (None, Env.preempt_policy)
    | No_preempt -> (None, Env.null_policy)
  in
  (* The POR harness interposes on whatever policy the spec built; with
     [por = false] nothing here runs and the policy (and every RNG draw)
     is exactly the historical one. *)
  let harness = if i.por then Some (Engine.por_harness engine ~nthreads) else None in
  let policy = match harness with Some h -> Por.wrap h policy | None -> policy in
  Env.set_policy env policy;
  let sched = Scheduler.create ~step_budget:i.step_budget ~rng () in
  Array.iteri
    (fun ti ops ->
      let name = Printf.sprintf "worker-%d" ti in
      ignore
        (Scheduler.spawn sched ~name (fun () ->
             let ctx = Env.ctx env ~tid:ti in
             Array.iter (fun op -> i.target.run_op ctx op) ops)))
    (Seed.threads i.seed);
  let outcome = Scheduler.run ?por:(Option.map Por.hooks harness) sched in
  let stuck =
    List.exists (fun (_, _, e) -> match e with Runtime.Mem.Stuck _ -> true | _ -> false)
      outcome.failed
  in
  let hung = outcome.hung <> [] || stuck in
  { env; outcome; sync; hung; por = Option.map Por.stats harness }

(* The hang-table key of a campaign: the first budget-killed thread, else
   the site of the first stuck spin lock. *)
let hang_info result =
  match result.outcome.hung with
  | (_, name) :: _ -> Printf.sprintf "hung:%s" name
  | [] -> (
      match
        List.find_opt
          (fun (_, _, e) -> match e with Runtime.Mem.Stuck _ -> true | _ -> false)
          result.outcome.failed
      with
      | Some (_, _, Runtime.Mem.Stuck site) -> Printf.sprintf "stuck:%s" site
      | Some _ | None -> "hang")
