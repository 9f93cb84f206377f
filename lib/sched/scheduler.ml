(* Deterministic cooperative scheduler built on OCaml 5 effect handlers.

   Simulated threads are fibers that call [yield] at every instrumented
   operation (the preemption points of §4.2.2).  The scheduler picks the
   next runnable fiber with a seeded RNG, so a (seed, program) pair always
   produces the same interleaving — buggy interleavings found by the fuzzer
   are replayable.

   A fiber that exceeds neither budget nor failure runs to completion.  When
   the step budget is exhausted with fibers still suspended, those fibers
   are killed (their continuations are discontinued so resources unwind) and
   reported as hung — this is how lock-related hangs (paper bugs 2, 5, 6)
   surface. *)

exception Killed
(* Raised inside a fiber when the scheduler kills it at budget exhaustion. *)

type _ Effect.t += Yield : unit Effect.t

type resumption =
  | Finished
  | Failed of exn
  | Yielded of (unit, resumption) Effect.Deep.continuation

type fstate =
  | Not_started of (unit -> unit)
  | Suspended of (unit, resumption) Effect.Deep.continuation
  | Done
  | Crashed of exn

type fiber = { tid : int; name : string; mutable state : fstate }

type outcome = {
  steps : int;
  finished : int list;
  hung : (int * string) list;
  failed : (int * string * exn) list;
}

type t = {
  rng : Rng.t;
  step_budget : int;
  mutable fibers : fiber list; (* reverse spawn order *)
  mutable count : int;
  mutable steps : int;
  mutable running : bool;
}

let create ?(step_budget = 200_000) ~rng () =
  { rng; step_budget; fibers = []; count = 0; steps = 0; running = false }

let spawn t ~name body =
  if t.running then invalid_arg "Sched.spawn: cannot spawn while running";
  let tid = t.count in
  t.count <- t.count + 1;
  t.fibers <- { tid; name; state = Not_started body } :: t.fibers;
  tid

let yield () = Effect.perform Yield

let handler : (unit, resumption) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some (fun (k : (a, resumption) Effect.Deep.continuation) -> Yielded k)
        | _ -> None);
  }

let start body = Effect.Deep.match_with body () handler
let resume k = Effect.Deep.continue k ()

let steps t = t.steps
let fiber_count t = t.count

(* Per-run step accounting, recorded once at the end of [run] (not per
   step) so the scheduler loop itself stays metric-free.  [t.steps] is
   cumulative across runs (the budget and [outcome.steps] observe it), so
   the metrics record the per-run *delta*, never the running total. *)
let m_steps_total = lazy (Obs.Metrics.counter "sched_steps_total")

let m_steps_per_run =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 50.; 200.; 1_000.; 5_000.; 20_000.; 60_000.; 200_000. |]
       "sched_steps_per_run")

let m_hung_fibers = lazy (Obs.Metrics.counter "sched_hung_fibers_total")

(* Mean wall seconds per scheduling step (including the fiber's own work
   between preemption points), sampled once every [sample_interval] steps
   so the hot loop pays one clock read per 64 steps, not per step. *)
let m_step_seconds =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 2e-7; 5e-7; 1e-6; 2e-6; 5e-6; 1e-5; 5e-5; 2e-4 |]
       "sched_step_seconds")

let sample_interval = 64 (* power of two: the sample test is a mask *)

let record f = function
  | Finished -> f.state <- Done
  | Failed e -> f.state <- Crashed e
  | Yielded k -> f.state <- Suspended k

(* Step one fiber: run it to its next preemption point (or completion /
   failure) and fold the resumption back into its state. *)
let step_fiber f =
  let r =
    match f.state with
    | Not_started body ->
        f.state <- Done (* placeholder; overwritten below *);
        start body
    | Suspended k ->
        f.state <- Done;
        resume k
    | Done | Crashed _ -> assert false
  in
  record f r

(* Kill whatever is still suspended (budget exhausted), then assemble the
   outcome and record the per-run metric deltas.  Shared by [run] and
   [run_reference] so the two paths differ only in how they pick. *)
let finish t ~steps_before fibers =
  let hung = ref [] in
  Array.iter
    (fun f ->
      match f.state with
      | Suspended k ->
          hung := (f.tid, f.name) :: !hung;
          (* Unwind the fiber so its resources are released; we ignore the
             result — the fiber is dead either way. *)
          (try ignore (Effect.Deep.discontinue k Killed) with _ -> ());
          f.state <- Crashed Killed
      | Not_started _ ->
          hung := (f.tid, f.name) :: !hung;
          f.state <- Crashed Killed
      | Done | Crashed _ -> ())
    fibers;
  let finished, failed =
    Array.fold_left
      (fun (fin, fail) f ->
        match f.state with
        | Done -> (f.tid :: fin, fail)
        | Crashed Killed -> (fin, fail)
        | Crashed e -> (fin, (f.tid, f.name, e) :: fail)
        | Not_started _ | Suspended _ -> assert false)
      ([], []) fibers
  in
  t.running <- false;
  if Obs.Metrics.enabled () then begin
    let delta = t.steps - steps_before in
    Obs.Metrics.incr ~by:delta (Lazy.force m_steps_total);
    Obs.Metrics.observe (Lazy.force m_steps_per_run) (float_of_int delta);
    Obs.Metrics.incr ~by:(List.length !hung) (Lazy.force m_hung_fibers)
  end;
  {
    steps = t.steps;
    finished = List.rev finished;
    hung = List.rev !hung;
    failed = List.rev failed;
  }

(* The legacy loop, kept verbatim as an executable specification: it
   rebuilds the runnable list from scratch every step and picks with the
   list-based [Rng.pick].  [run] must consume the identical RNG stream and
   produce the identical schedule; tests assert it and the hotpath bench
   measures the gap.  Do not optimise this. *)
let run_reference ?on_step t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let runnable () =
    Array.to_list fibers
    |> List.filter (fun f ->
           match f.state with Not_started _ | Suspended _ -> true | Done | Crashed _ -> false)
  in
  let rec loop () =
    match runnable () with
    | [] -> ()
    | rs ->
        if t.steps >= t.step_budget then ()
        else begin
          let f = Rng.pick t.rng rs in
          t.steps <- t.steps + 1;
          (match on_step with Some g -> g f.tid | None -> ());
          step_fiber f;
          loop ()
        end
  in
  loop ();
  finish t ~steps_before fibers

(* ------------------------------------------------------------------ *)
(* Partial-order reduction hooks (sleep sets).                         *)
(* ------------------------------------------------------------------ *)

(* POR hooks cross the lib/sched dependency boundary as plain ints: a
   footprint is an opaque int summary of a step's instrumented accesses
   (Runtime.Footprint encodes/decodes it; 0 means "no instrumented op /
   unknown").  The footprint channels are shared flat arrays, not
   closures: most steps execute nothing instrumented, and an indirect
   call per step to learn "nothing happened" is measurable against a
   step loop this tight.  Only the two relational queries stay calls. *)
type por = {
  pending : int array;
      (* [pending.(tid)] — footprint of the op the fiber will execute
         when next resumed, or 0 if unknown (not yet at a preemption
         point).  Written by the recorder, read directly here.  Fibers
         with tids beyond the array are treated as unknown. *)
  step_fp : int array;
      (* One cell: footprint of the op(s) the last step executed, 0 for
         a step that ran no instrumented op.  The scheduler consumes and
         clears it after every step. *)
  independent : int -> int -> bool;
  spin : int -> int -> bool;
      (* [spin executed pending] — the stepped fiber is busy-wait
         retrying the op it just ran (a failed CAS); park it until a
         conflicting access wakes it instead of letting it spin. *)
  mutable pruned_picks : int;
  mutable forced_wakes : int;
}

(* The hooks of a run without POR: no footprint ever arrives, so nobody
   sleeps.  One value shared by every such run on every domain; [run]
   writes [step_fp] only after reading a non-zero footprint and the
   counters only for a caller's own [por], so this value is never
   written. *)
let no_por =
  {
    pending = [||];
    step_fp = [| 0 |];
    independent = (fun _ _ -> false);
    spin = (fun _ _ -> false);
    pruned_picks = 0;
    forced_wakes = 0;
  }

(* The one scheduling loop.  The runnable set is a maintained index array
   in spawn order: a fiber that finishes or crashes is removed with an
   order-preserving shift.  Removal must preserve spawn order — a
   swap-with-last would keep the RNG *stream* identical (the draw bound
   is the same) but change which fiber each drawn index denotes,
   silently changing every interleaving.  Shifts cost O(runnable), but
   there are at most [fiber_count] of them per run, so the per-step cost
   is O(1) amortized.

   On top of that it keeps a per-fiber sleep bit and the last executed
   footprint:

   - after stepping fiber [p] with executed footprint [fp], every other
     runnable fiber [q] with a *known* pending footprint independent of
     [fp] and [q.tid < p.tid] is put to sleep: running [q] now would
     produce a schedule Mazurkiewicz-equivalent to one that ran [q]
     before [p] (which the ascending-tid order makes the canonical
     representative), so the pick is redundant;
   - any sleeping fiber whose pending op *conflicts* with [fp] is woken —
     the dependency breaks the commutation argument;
   - a fiber whose next op busy-wait retries the op it just executed
     ([por.spin] — a failed CAS) is itself parked: nothing it can
     observe changes until some step conflicts with that footprint, and
     any such step wakes it through the rule above.  Without this a
     spinner burns the whole step budget while the lock holder sleeps;
   - steps that executed nothing instrumented neither sleep nor wake
     anyone;
   - if every runnable fiber is asleep the whole set is force-woken
     (counted in [forced_wakes]) so the run always terminates.

   The picks suppressed each step are counted in [pruned_picks].  The
   pruning is heuristic, not exhaustive DPOR: uninstrumented state
   (DRAM, sync-policy bookkeeping) rides along outside the independence
   relation, so equality of the found-bug sets is pinned empirically by
   the POR property tests rather than proved.

   RNG-stream invariant (pinned by test_scheduler's compatibility
   property): without a footprint nobody sleeps, so the candidate set
   is the identity over the runnable array, and [Rng.pick rng rs] is
   [List.nth rs (Rng.int rng (length rs))] — drawing [Rng.int rng
   n_runnable] and indexing the spawn-ordered runnable array consumes
   the identical stream and picks the identical fiber [run_reference]
   does.  With sleepers the draw is over the awake subset, so POR
   sessions are seed-reproducible against themselves only.

   Maintenance is allocation-free: the sleep bits, the candidate
   scratch, and a live sleeper count are preallocated arrays/ints sized
   by the fiber count.  The candidate set is cached between sleep-state
   changes — sync-heavy campaigns run tens of thousands of steps that
   execute nothing instrumented, and rebuilding an identical candidate
   array every one of them was the dominant POR cost.  A step with no
   footprint makes zero indirect calls: the executed and pending
   footprints arrive through the [por] record's shared arrays, so
   [independent]/[spin] only run on the steps that did something. *)
let run ?on_step ?por t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let n = max 1 (Array.length fibers) in
  let runnable = Array.make n 0 in
  let n_runnable = ref 0 in
  let asleep = Array.make n false in
  let candidates = Array.make n 0 (* positions in [runnable], not fiber ids *) in
  Array.iteri
    (fun i f ->
      match f.state with
      | Not_started _ | Suspended _ ->
          runnable.(!n_runnable) <- i;
          incr n_runnable
      | Done | Crashed _ -> ())
    fibers;
  let hooks = match por with Some p -> p | None -> no_por in
  let pruned_picks = ref 0 and forced_wakes = ref 0 in
  let pending = hooks.pending in
  let pn = Array.length pending in
  let sfp = hooks.step_fp in
  (* Candidate cache: [candidates.(0 .. n_cand-1)] are the awake
     positions, valid while [cand_dirty] is clear.  Any sleep, wake, or
     runnable-set change invalidates it; the steps in between — the
     overwhelming majority — reuse it untouched.

     [pruned_picks] is settled per *span* rather than per step: between
     two rebuilds every pick suppresses the same number of positions
     ([span_pruned]), so the count is one multiply at the next rebuild
     instead of a read-modify-write on every step. *)
  let n_cand = ref 0 in
  let cand_dirty = ref true in
  let span_start = ref t.steps in
  let span_pruned = ref 0 in
  let settle_span () =
    if !span_pruned > 0 then
      pruned_picks := !pruned_picks + ((t.steps - !span_start) * !span_pruned);
    span_start := t.steps
  in
  let rebuild () =
    settle_span ();
    n_cand := 0;
    for k = 0 to !n_runnable - 1 do
      if not asleep.(runnable.(k)) then begin
        candidates.(!n_cand) <- k;
        incr n_cand
      end
    done;
    if !n_cand = 0 then begin
      (* Everyone runnable is asleep: the canonical representative has
         been followed as far as it goes — wake the set and keep
         scheduling rather than deadlock. *)
      incr forced_wakes;
      for k = 0 to !n_runnable - 1 do
        asleep.(runnable.(k)) <- false;
        candidates.(k) <- k
      done;
      n_cand := !n_runnable
    end;
    span_pruned := !n_runnable - !n_cand;
    cand_dirty := false
  in
  let sleep i =
    if not asleep.(i) then begin
      asleep.(i) <- true;
      cand_dirty := true
    end
  in
  let wake i =
    if asleep.(i) then begin
      asleep.(i) <- false;
      cand_dirty := true
    end
  in
  let sampling = Obs.Metrics.enabled () in
  let sample_anchor = ref (if sampling then Obs.Clock.now () else 0.) in
  let rec loop () =
    if !n_runnable > 0 && t.steps < t.step_budget then begin
      if !cand_dirty then rebuild ();
      let j = candidates.(Rng.int t.rng !n_cand) in
      let i = runnable.(j) in
      let f = fibers.(i) in
      t.steps <- t.steps + 1;
      (match on_step with Some g -> g f.tid | None -> ());
      step_fiber f;
      let fp = Array.unsafe_get sfp 0 in
      if fp <> 0 then begin
        Array.unsafe_set sfp 0 0;
        (* A spin retry (the fiber is about to re-execute the op it just
           ran — a failed CAS) changed nothing observable: it reads its
           word and writes nothing.  It must not drive the wake/sleep
           pass — a failed CAS's [rw] footprint conflicts with every
           fellow spinner's pending CAS, so treating it as a real step
           makes parked spinners wake each other in a round-robin
           livelock that burns the whole budget while the lock holder
           sleeps.  Park the spinner and leave everyone else's sleep
           state alone; the word can only change via a conflicting step
           by an awake fiber, which wakes the spinner through the rule
           below. *)
        let spinning =
          match f.state with
          | Not_started _ | Suspended _ ->
              hooks.spin fp (if f.tid < pn then Array.unsafe_get pending f.tid else 0)
          | Done | Crashed _ -> false
        in
        if spinning then sleep i
        else
          (* Only two transitions exist, so only two cases need the
             (indirect) independence call: an asleep fiber can only be
             woken (on conflict), and an awake fiber can only be slept
             (commuting op, lower tid).  An awake fiber with a higher
             tid cannot change state — skip it without consulting the
             relation at all. *)
          for k = 0 to !n_runnable - 1 do
            let q = runnable.(k) in
            if q <> i then
              if Array.unsafe_get asleep q then begin
                let qt = fibers.(q).tid in
                let pq = if qt < pn then Array.unsafe_get pending qt else 0 in
                if pq <> 0 && not (hooks.independent fp pq) then wake q
              end
              else
                let qt = fibers.(q).tid in
                if qt < f.tid then begin
                  let pq = if qt < pn then Array.unsafe_get pending qt else 0 in
                  if pq <> 0 && hooks.independent fp pq then sleep q
                end
          done
      end;
      (match f.state with
      | Done | Crashed _ ->
          wake i;
          (* Order-preserving removal; [j] is the position. *)
          Array.blit runnable (j + 1) runnable j (!n_runnable - j - 1);
          decr n_runnable;
          cand_dirty := true
      | Not_started _ | Suspended _ -> ());
      if sampling && (t.steps - steps_before) land (sample_interval - 1) = 0 then begin
        let now = Obs.Clock.now () in
        Obs.Metrics.observe (Lazy.force m_step_seconds)
          ((now -. !sample_anchor) /. float_of_int sample_interval);
        sample_anchor := now
      end;
      loop ()
    end
  in
  loop ();
  settle_span ();
  (match por with
  | Some p ->
      p.pruned_picks <- !pruned_picks;
      p.forced_wakes <- !forced_wakes
  | None -> ());
  finish t ~steps_before fibers

let completed o = o.hung = [] && o.failed = []

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "steps=%d finished=%d hung=[%a] failed=[%a]" o.steps (List.length o.finished)
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    o.hung
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    (List.map (fun (t, n, _) -> (t, n)) o.failed)
