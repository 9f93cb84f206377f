(** One fuzz campaign: a single concurrent execution of a target with a
    seed, an interleaving policy and a scheduler seed.  The execution
    context comes from an {!Engine}: its pool starts from a fresh target
    initialisation or an in-memory checkpoint (§5), and checker state is
    reset after initialisation. *)

module Scheduler = Sched.Scheduler
module Env = Runtime.Env

type policy_spec =
  | Pmrace of { entry : Shared_queue.entry; skip : int }
      (** PM-aware sync-point scheduling on one queue entry *)
  | Delay of { prob : float; max_delay : int }  (** the Delay-Inj baseline *)
  | Random_sched  (** plain preemption at every instrumented operation *)
  | No_preempt

val policy_spec_codec : policy_spec Obs.Codec.t
(** The ["policy"]-tagged JSON form provenance uses; sites by name,
    re-registered via {!Runtime.Instr.site} on decode. *)

type input = {
  target : Target.t;
  seed : Seed.t;
  sched_seed : int;
  policy : policy_spec;
  step_budget : int;
  por : bool;
      (** run {!Sched.Scheduler.run} with POR hooks: sleep-set pruning plus a
          canonical trace hash.  [false] (the default) leaves the
          schedule — and every RNG draw — bit-identical to before the
          POR layer existed. *)
}

val default_step_budget : int
(** 60_000 scheduler steps: [input]'s default, {!Fuzzer.default_config}'s
    and the budget of every {!Analyze} execution. *)

val input :
  ?sched_seed:int ->
  ?policy:policy_spec ->
  ?step_budget:int ->
  ?por:bool ->
  Target.t ->
  Seed.t ->
  input

type result = {
  env : Env.t;  (** checkers carry the campaign's findings *)
  outcome : Scheduler.outcome;
  sync : Sync_policy.t option;
  hung : bool;  (** budget exhaustion or a stuck spin lock *)
  por : Por.stats option;
      (** trace hash + pruning counters, when the input asked for POR *)
}

val run : engine:Engine.t -> ?listeners:(Env.t -> unit) list -> input -> result
(** Execute the campaign in an environment from {!Engine.checkout}; the
    engine's configuration (checkpoint, image capture, eviction, eADR)
    governs.  [listeners] (e.g. {!Inv_monitor.attach} partially applied)
    attach theirs to the environment before the run, after the engine's
    bound listeners, until the next checkout.  [result.env] is valid
    until the engine's next checkout. *)

val hang_info : result -> string
(** The report's hang-table key for a hung campaign: ["hung:NAME"] for the
    first thread killed at the step budget, ["stuck:SITE"] for the first
    stuck spin lock, ["hang"] otherwise. *)
