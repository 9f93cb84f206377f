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

type fstate =
  | Not_started of (unit -> unit)
  | Suspended of (unit, fstate) Effect.Deep.continuation
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

(* The handler folds a fiber's next stop straight into its state: no
   intermediate resumption value to allocate and translate. *)
let handler : (unit, fstate) Effect.Deep.handler =
  {
    retc = (fun () -> Done);
    exnc = (fun e -> Crashed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield -> Some (fun (k : (a, fstate) Effect.Deep.continuation) -> Suspended k)
        | _ -> None);
  }

(* Run fiber [f] to its next effect, completion or failure. *)
let step_fiber f =
  f.state <-
    (match f.state with
    | Not_started body -> Effect.Deep.match_with body () handler
    | Suspended k -> Effect.Deep.continue k ()
    | Done | Crashed _ -> assert false)

let steps t = t.steps

(* Per-run step accounting, recorded once at the end of [run] (not per
   step) so the scheduler loop itself stays metric-free.  [t.steps] is
   cumulative across runs (the budget and [outcome.steps] observe it), so
   the metrics record the per-run *delta*, never the running total. *)
let m_steps_total = lazy (Obs.Metrics.counter "sched_steps_total")

let m_hung_fibers = lazy (Obs.Metrics.counter "sched_hung_fibers_total")

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

(* The state of one [run], in one record so that [yield] can reach it
   from the fiber's own stack.  Fiber [i] of [fibers] has tid [i] (tids
   are dense in spawn order), so the record indexes by tid throughout.

   The runnable set is a maintained index array in spawn order: a fiber
   that finishes or crashes is removed with an order-preserving shift.
   Removal must preserve spawn order — a swap-with-last would keep the
   RNG *stream* identical (the draw bound is the same) but change which
   fiber each drawn index denotes, silently changing every interleaving.
   Shifts cost O(runnable), but there is at most one per fiber
   per run, so the per-step cost is O(1) amortized. *)
type run = {
  sched : t;
  fibers : fiber array;
  runnable : int array;
  mutable n_runnable : int;
  asleep : bool array;
  candidates : int array; (* positions in [runnable], not fiber ids *)
  mutable n_cand : int;
  mutable cand_dirty : bool;
      (* [candidates.(0 .. n_cand-1)] are the awake positions, valid
         while [cand_dirty] is clear.  Any sleep, wake, or runnable-set
         change invalidates it; the steps in between — the overwhelming
         majority — reuse it untouched. *)
  mutable span_start : int;
  mutable span_pruned : int;
      (* [pruned_picks] is settled per *span* rather than per step:
         between two rebuilds every pick suppresses the same number of
         positions ([span_pruned]), so the count is one multiply at the
         next rebuild instead of a read-modify-write on every step. *)
  mutable pruned_picks : int;
  mutable forced_wakes : int;
  hooks : por;
  on_step : (int -> unit) option;
  mutable cur : int;
      (* The fiber the last decision picked, which runs until its next
         [yield]; [-1] once the run is over (nothing runnable, or the
         budget is spent). *)
  mutable cur_pos : int; (* [cur]'s position in [runnable] *)
  owed : int array;
      (* [owed.(tid)] — steps the fiber still owes to a [yield_n] stall.
         [decide] charges a picked fiber that owes steps instead of
         resuming it; a fiber runs again only when picked owing none. *)
  mutable aborted : (exn * Printexc.raw_backtrace) option;
      (* An exception a hook raised while a fiber's [yield] ran it: the
         fiber hands it to [drive], which re-raises it from [run]. *)
}

(* The run whose fiber is executing on this domain, if any.  [run] sets
   it around its stepping loop and restores the enclosing value on every
   exit, so a run nested inside a fiber finds its own record and the
   outer run finds its own again afterwards.  [None] — outside any run,
   in [run_reference], while [finish] unwinds killed fibers — makes
   [yield] perform the effect for whichever handler encloses it. *)
let current : run option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_current r f =
  let outer = Domain.DLS.get current in
  Domain.DLS.set current r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current outer) f

(* Kill whatever is still suspended (budget exhausted), then assemble the
   outcome and record the per-run metric deltas.  Shared by [run] and
   [run_reference] so the two paths differ only in how they pick. *)
let finish t ~steps_before fibers =
  let hung = ref [] in
  with_current None (fun () ->
      Array.iter
        (fun f ->
          match f.state with
          | Suspended k ->
              hung := (f.tid, f.name) :: !hung;
              (* Unwind the fiber so its resources are released; we ignore
                 the result — the fiber is dead either way. *)
              (try ignore (Effect.Deep.discontinue k Killed) with _ -> ());
              f.state <- Crashed Killed
          | Not_started _ ->
              hung := (f.tid, f.name) :: !hung;
              f.state <- Crashed Killed
          | Done | Crashed _ -> ())
        fibers);
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
    Obs.Metrics.incr ~by:(List.length !hung) (Lazy.force m_hung_fibers)
  end;
  {
    steps = t.steps;
    finished = List.rev finished;
    hung = List.rev !hung;
    failed = List.rev failed;
  }

(* The legacy loop, kept verbatim as an executable specification: it
   rebuilds the runnable list anew every step, picks with the
   list-based [Rng.pick] and switches to the picked fiber through the
   effect handler every step.  [run] must consume the identical RNG stream
   and produce the identical schedule; tests assert it and the hotpath
   bench measures the gap.  Do not optimise this. *)
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
  with_current None loop;
  finish t ~steps_before fibers

(* ------------------------------------------------------------------ *)
(* The scheduling step.                                                 *)
(* ------------------------------------------------------------------ *)

(* A step ends where the stepped fiber stops: at its next [yield] (on the
   fiber's own stack), or at its completion or failure (in [drive]).
   Both ends run the same sequence — [end_step], then [decide] — so each
   step's side effects keep one order whoever runs them: sleep/wake
   pass, removal of a finished fiber, the one RNG draw, [steps + 1],
   [on_step].  The RNG stream, every schedule and every pruning count
   are therefore those of the earlier loop that ran every step from
   outside the fiber.

   A [yield_n n] stall is n steps of a fiber that runs nothing between
   its yields.  Such a step, once picked, would resume the fiber only
   for it to run straight into its next [yield], whose [end_step] and
   [decide] are all the step does.  [decide] runs that pair itself when
   it picks a fiber that still owes steps, so an owed step costs a draw
   and no effect round trip, and the stream, schedule, step count,
   [on_step] calls and pruning counts are those of n plain yields.  A
   fiber still owing at the budget is suspended in its one [yield], so
   it is killed and reported hung exactly as n yields would leave it.

   The sleep-set rules, after stepping fiber [p] with executed footprint
   [fp]:

   - every other runnable fiber [q] with a *known* pending footprint
     independent of [fp] and [q < p] is put to sleep: running [q] now
     would produce a schedule Mazurkiewicz-equivalent to one that ran [q]
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
   buffer, and a live sleeper count are preallocated arrays/ints sized
   by the fiber count.  The candidate set is cached between sleep-state
   changes — sync-heavy campaigns run tens of thousands of steps that
   execute nothing instrumented, and rebuilding an identical candidate
   array every one of them was the dominant POR cost.  A step with no
   footprint makes zero indirect calls: the executed and pending
   footprints arrive through the [por] record's shared arrays, so
   [independent]/[spin] only run on the steps that did something. *)

let settle_span r =
  let steps = r.sched.steps in
  if r.span_pruned > 0 then
    r.pruned_picks <- r.pruned_picks + ((steps - r.span_start) * r.span_pruned);
  r.span_start <- steps

let rebuild r =
  settle_span r;
  r.n_cand <- 0;
  for k = 0 to r.n_runnable - 1 do
    if not r.asleep.(r.runnable.(k)) then begin
      r.candidates.(r.n_cand) <- k;
      r.n_cand <- r.n_cand + 1
    end
  done;
  if r.n_cand = 0 then begin
    (* Everyone runnable is asleep: the canonical representative has
       been followed as far as it goes — wake the set and keep
       scheduling rather than deadlock. *)
    r.forced_wakes <- r.forced_wakes + 1;
    for k = 0 to r.n_runnable - 1 do
      r.asleep.(r.runnable.(k)) <- false;
      r.candidates.(k) <- k
    done;
    r.n_cand <- r.n_runnable
  end;
  r.span_pruned <- r.n_runnable - r.n_cand;
  r.cand_dirty <- false

let sleep r i =
  if not r.asleep.(i) then begin
    r.asleep.(i) <- true;
    r.cand_dirty <- true
  end

let wake r i =
  if r.asleep.(i) then begin
    r.asleep.(i) <- false;
    r.cand_dirty <- true
  end

let pending_of r tid =
  let pending = r.hooks.pending in
  if tid < Array.length pending then Array.unsafe_get pending tid else 0

(* The sleep/wake pass after fiber [i] executed footprint [fp]; [alive]
   is whether it can run again. *)
let sleep_wake r i fp ~alive =
  Array.unsafe_set r.hooks.step_fp 0 0;
  (* A spin retry (the fiber is about to re-execute the op it just ran —
     a failed CAS) changed nothing observable: it reads its word and
     writes nothing.  It must not drive the wake/sleep pass — a failed
     CAS's [rw] footprint conflicts with every fellow spinner's pending
     CAS, so treating it as a real step makes parked spinners wake each
     other in a round-robin livelock that burns the whole budget while
     the lock holder sleeps.  Park the spinner and leave everyone else's
     sleep state alone; the word can only change via a conflicting step
     by an awake fiber, which wakes the spinner through the rule
     below. *)
  if alive && r.hooks.spin fp (pending_of r i) then sleep r i
  else
    (* Only two transitions exist, so only two cases need the (indirect)
       independence call: an asleep fiber can only be woken (on
       conflict), and an awake fiber can only be slept (commuting op,
       lower tid).  An awake fiber with a higher tid cannot change state
       — skip it without consulting the relation at all. *)
    for k = 0 to r.n_runnable - 1 do
      let q = r.runnable.(k) in
      if q <> i then
        if Array.unsafe_get r.asleep q then begin
          let pq = pending_of r q in
          if pq <> 0 && not (r.hooks.independent fp pq) then wake r q
        end
        else if q < i then begin
          let pq = pending_of r q in
          if pq <> 0 && r.hooks.independent fp pq then sleep r q
        end
    done

(* The first half of a step's bookkeeping, once fiber [i] has stopped:
   the sleep/wake pass and removal if it can no longer run. *)
let end_step r i ~alive =
  let fp = Array.unsafe_get r.hooks.step_fp 0 in
  if fp <> 0 then sleep_wake r i fp ~alive;
  if not alive then begin
    wake r i;
    (* Order-preserving removal; [cur_pos] is [i]'s position. *)
    let j = r.cur_pos in
    Array.blit r.runnable (j + 1) r.runnable j (r.n_runnable - j - 1);
    r.n_runnable <- r.n_runnable - 1;
    r.cand_dirty <- true
  end

(* The second half: pick the fiber the next step runs, into [cur].  A
   picked fiber that owes steps takes its owed step here, without being
   resumed: the [end_step] of a step that ran nothing, then the next
   decision. *)
let rec decide r =
  let t = r.sched in
  if r.n_runnable > 0 && t.steps < t.step_budget then begin
    if r.cand_dirty then rebuild r;
    let j = Array.unsafe_get r.candidates (Rng.int t.rng r.n_cand) in
    let i = Array.unsafe_get r.runnable j in
    r.cur_pos <- j;
    r.cur <- i;
    t.steps <- t.steps + 1;
    (match r.on_step with Some g -> g i | None -> ());
    let owed = Array.unsafe_get r.owed i in
    if owed > 0 then begin
      Array.unsafe_set r.owed i (owed - 1);
      end_step r i ~alive:true;
      decide r
    end
  end
  else r.cur <- -1

(* A fiber of a [run] ends its step and takes the next decision here, on
   its own stack.  Only when the decision hands the processor to another
   fiber (or ends the run) does it perform [Yield]; a self-pick returns
   and the fiber keeps running.  A hook's exception is not raised here,
   where the fiber's own handlers would see it: it travels to [drive],
   which raises it from [run]. *)
let yield_in r =
  let i = r.cur in
  match
    end_step r i ~alive:true;
    decide r
  with
  | () -> if r.cur <> i then Effect.perform Yield
  | exception e ->
      r.aborted <- Some (e, Printexc.get_raw_backtrace ());
      Effect.perform Yield

let yield () =
  match Domain.DLS.get current with
  | None -> Effect.perform Yield
  | Some r -> yield_in r

let yield_n n =
  match Domain.DLS.get current with
  | None ->
      for _ = 1 to n do
        Effect.perform Yield
      done
  | Some r ->
      if n > 0 then begin
        r.owed.(r.cur) <- n - 1;
        yield_in r
      end

(* The stepping loop: run whichever fiber the last decision picked.  A fiber
   that yields has already ended its step and decided the next one; a
   fiber that finished or crashed has not, so [drive] does both. *)
let drive r =
  decide r;
  while r.cur >= 0 do
    let i = r.cur in
    let f = r.fibers.(i) in
    step_fiber f;
    (match r.aborted with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    match f.state with
    | Suspended _ -> ()
    | Done | Crashed _ ->
        end_step r i ~alive:false;
        decide r
    | Not_started _ -> assert false
  done

let run ?on_step ?por t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let n = max 1 (Array.length fibers) in
  let runnable = Array.make n 0 in
  let n_runnable = ref 0 in
  Array.iteri
    (fun i f ->
      match f.state with
      | Not_started _ | Suspended _ ->
          runnable.(!n_runnable) <- i;
          incr n_runnable
      | Done | Crashed _ -> ())
    fibers;
  let r =
    {
      sched = t;
      fibers;
      runnable;
      n_runnable = !n_runnable;
      asleep = Array.make n false;
      candidates = Array.make n 0;
      n_cand = 0;
      cand_dirty = true;
      span_start = t.steps;
      span_pruned = 0;
      pruned_picks = 0;
      forced_wakes = 0;
      hooks = (match por with Some p -> p | None -> no_por);
      on_step;
      cur = -1;
      cur_pos = 0;
      owed = Array.make n 0;
      aborted = None;
    }
  in
  with_current (Some r) (fun () -> drive r);
  settle_span r;
  (match por with
  | Some p ->
      p.pruned_picks <- r.pruned_picks;
      p.forced_wakes <- r.forced_wakes
  | None -> ());
  finish t ~steps_before fibers

let completed o = o.hung = [] && o.failed = []

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "steps=%d finished=%d hung=[%a] failed=[%a]" o.steps (List.length o.finished)
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    o.hung
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    (List.map (fun (t, n, _) -> (t, n)) o.failed)
