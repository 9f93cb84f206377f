(** Deterministic cooperative scheduler (OCaml 5 effect handlers).

    Simulated threads are fibers that {!yield} at every instrumented
    operation; the scheduler picks the next runnable fiber with a seeded
    {!Rng.t}, so every interleaving is replayable from its seed.  Fibers
    still suspended when the step budget runs out are killed and reported
    as hung — this is how lock hangs surface in the reproduction.

    One production loop, {!run}, serves plain seeded scheduling and, given
    {!por} hooks, sleep-set pruning.  {!run_reference} is its executable
    specification for the unpruned case. *)

exception Killed
(** Raised inside a fiber killed at budget exhaustion. *)

type t

type outcome = {
  steps : int;  (** scheduling decisions taken *)
  finished : int list;  (** tids that ran to completion *)
  hung : (int * string) list;  (** tids (and names) killed at budget *)
  failed : (int * string * exn) list;  (** tids that raised *)
}

val create : ?step_budget:int -> rng:Rng.t -> unit -> t
(** [step_budget] bounds the number of scheduling decisions (default
    200_000); exhausting it classifies surviving fibers as hung. *)

val spawn : t -> name:string -> (unit -> unit) -> int
(** Register a fiber; returns its tid (dense, starting at 0).  All fibers
    must be spawned before {!run}. *)

val yield : unit -> unit
(** A preemption point; the runtime calls it at every instrumented
    operation.  Inside a fiber of {!run} it ends the current scheduling
    step and takes the next decision on the fiber's own stack (see
    {!run}).  It switches fibers — performs the scheduler's effect — only
    when that decision picks another fiber or ends the run; when it
    re-picks the caller it simply returns.  A decision may first charge
    steps that other fibers owe to {!yield_n} stalls; those fibers are
    not resumed.  Anywhere else (inside {!run_reference}, or outside any
    run) it performs the effect, which raises [Effect.Unhandled] when no
    scheduler encloses the call. *)

val yield_n : int -> unit
(** [yield_n n] is [for _ = 1 to n do yield () done]: a stall of [n]
    scheduling steps in which the caller runs nothing ([n <= 0] takes no
    step).  Inside a fiber of {!run} the caller yields once and owes the
    other [n - 1] steps.  A decision that picks a fiber owing steps
    charges it one — the draw, the step count and [on_step] happen as for
    any step — and decides again without resuming it, so however long the
    stall, the caller is switched out and back at most once.  The RNG
    stream, schedule, outcome and POR counters are those of [n] calls to
    {!yield}.  Anywhere else it performs the effect [n] times, like
    {!yield}. *)

(** {2 Partial-order reduction hooks} *)

type por = {
  pending : int array;
      (** [pending.(tid)] — footprint of the op the fiber will execute
          when next resumed, or [0] when unknown.  Footprints are opaque
          ints ({!Runtime.Footprint} encodes them); the scheduler never
          inspects them beyond equality with [0].  The recorder writes
          the array in place; fibers with tids beyond its length count
          as unknown. *)
  step_fp : int array;
      (** A single shared cell: footprint of the op(s) the last step
          executed, [0] for a step that ran nothing instrumented.  The
          scheduler reads and clears it after every step.  An array
          rather than a closure pair: most steps execute nothing
          instrumented, and two indirect calls per step to learn that
          cost more than the rest of the pick loop. *)
  independent : int -> int -> bool;
      (** Whether two adjacent steps with these footprints commute. *)
  spin : int -> int -> bool;
      (** [spin executed pending] — the stepped fiber is busy-wait
          retrying the op it just executed (a failed CAS;
          {!Runtime.Footprint.spin_retry}).  {!run} parks such a fiber
          until a conflicting access wakes it, so a spinner cannot burn
          the step budget while the lock holder sleeps. *)
  mutable pruned_picks : int;
      (** Set by {!run}: candidate picks suppressed by sleep sets, summed
          over the run's steps. *)
  mutable forced_wakes : int;
      (** Set by {!run}: times the whole runnable set was asleep and had
          to be woken to make progress. *)
}
(** The scheduler's whole view of the runtime for pruning, int-encoded so
    [lib/sched] keeps its dependency footprint ([fmt obs] only).  The two
    counters report the most recent {!run} given this record. *)

val run : ?on_step:(int -> unit) -> ?por:por -> t -> outcome
(** Execute all fibers to completion, failure, or budget exhaustion.
    [on_step tid] is invoked before every scheduling step.

    A step ends where the stepped fiber stops: in its {!yield}, or when it
    finishes or crashes.  There, in this order, the step's bookkeeping
    runs — the POR sleep/wake pass, removal of a fiber that can no longer
    run — followed by the next decision: one [Rng.int] draw, the step
    count, [on_step].  A decision that picks a fiber owing {!yield_n}
    steps takes one of them at once, without resuming the fiber.  [run]
    itself only steps whichever fiber the last decision picked.  An
    exception raised by [on_step] or a POR hook escapes [run], even when a
    fiber's {!yield} called the hook; it never reaches the fiber's code.
    [run] may be called from inside a fiber of another [run] (each run
    draws from its own scheduler's generator); the outer run resumes
    unaffected.

    The per-step cost is O(1) amortized in the number of fibers: the
    runnable set is a maintained spawn-ordered index array, not a list
    rebuilt every step.

    With [por], sleep-set pruning: after each step, runnable fibers whose
    pending op commutes with the executed footprint (and whose tid orders
    below the stepped fiber's — the canonical representative of the
    Mazurkiewicz class runs lower tids first among commuting ops) are put
    to sleep and excluded from the pick until a dependent access wakes
    them.  A fiber that busy-wait retries the op it just executed
    ([por.spin], a failed CAS) is itself parked until a conflicting access
    wakes it.  The pruning is a heuristic over instrumented accesses
    only; POR property tests pin that found-bug sets match unpruned runs
    on the planted workloads.  The candidate set is cached between
    sleep-state changes, so a step that executed nothing instrumented
    costs the same with or without [por].

    RNG stream: one [Rng.int] draw per step over the awake fibers.  A run
    in which no step reports a footprint (in particular every run without
    [por]) puts nobody to sleep, so its RNG stream, schedule and outcome
    are bit-identical to {!run_reference} (pinned by a property test).
    Once fibers sleep the draw is over the awake subset, so POR sessions
    are seed-reproducible against themselves, not against unpruned runs.

    Metrics (when {!Obs.Metrics.enabled}): records the per-run step
    {e delta} into [sched_steps_total] — a reused scheduler value never
    double-counts.  Step time is not sampled here: readers derive it from
    [campaign_run_seconds] / [sched_steps_total]. *)

val run_reference : ?on_step:(int -> unit) -> t -> outcome
(** The legacy scheduling loop (rebuild-and-filter the runnable list every
    step, list-based {!Rng.pick}), kept as an executable specification of
    {!run} without pruning: same RNG stream, same schedule, same outcome —
    only the per-step cost differs (O(fibers) instead of O(1), and an
    effect round trip on every step, self-picks and {!yield_n} stalls
    included).  Used by the stream-compatibility tests and the [hotpath]
    bench; not for production callers. *)

val steps : t -> int

val completed : outcome -> bool
(** No hung and no failed fibers. *)

val pp_outcome : Format.formatter -> outcome -> unit
