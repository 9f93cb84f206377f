(* Deterministic cooperative scheduler: interleaving, determinism, hangs,
   failures. *)

module Rng = Sched.Rng
module Scheduler = Sched.Scheduler

let test_runs_to_completion () =
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  let hits = ref 0 in
  for _ = 1 to 3 do
    ignore (Scheduler.spawn s ~name:"w" (fun () -> incr hits))
  done;
  let o = Scheduler.run s in
  Alcotest.(check int) "all ran" 3 !hits;
  Alcotest.(check int) "finished" 3 (List.length o.finished);
  Alcotest.(check bool) "completed" true (Scheduler.completed o)

let test_interleaving () =
  (* Two fibers alternate; with yields the trace must interleave rather
     than run back-to-back for every seed in a small sample. *)
  let interleaved = ref false in
  for seed = 1 to 10 do
    let s = Scheduler.create ~rng:(Rng.create seed) () in
    let trace = ref [] in
    let fiber id () =
      for i = 0 to 2 do
        trace := (id, i) :: !trace;
        Scheduler.yield ()
      done
    in
    ignore (Scheduler.spawn s ~name:"a" (fiber 0));
    ignore (Scheduler.spawn s ~name:"b" (fiber 1));
    ignore (Scheduler.run s);
    let order = List.rev_map fst !trace in
    let rec changes = function
      | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + changes rest
      | _ -> 0
    in
    if changes order > 1 then interleaved := true
  done;
  Alcotest.(check bool) "some seed interleaves" true !interleaved

let trace_for seed =
  let s = Scheduler.create ~rng:(Rng.create seed) () in
  let trace = Buffer.create 64 in
  let fiber c () =
    for _ = 0 to 4 do
      Buffer.add_char trace c;
      Scheduler.yield ()
    done
  in
  ignore (Scheduler.spawn s ~name:"a" (fiber 'a'));
  ignore (Scheduler.spawn s ~name:"b" (fiber 'b'));
  ignore (Scheduler.spawn s ~name:"c" (fiber 'c'));
  ignore (Scheduler.run s);
  Buffer.contents trace

let test_determinism () =
  Alcotest.(check string) "same seed, same schedule" (trace_for 42) (trace_for 42);
  Alcotest.(check bool) "different seeds usually differ" true
    (trace_for 1 <> trace_for 2 || trace_for 3 <> trace_for 4)

let test_budget_hang () =
  let s = Scheduler.create ~step_budget:50 ~rng:(Rng.create 1) () in
  ignore
    (Scheduler.spawn s ~name:"spinner" (fun () ->
         while true do
           Scheduler.yield ()
         done));
  let o = Scheduler.run s in
  Alcotest.(check int) "steps capped" 50 o.steps;
  Alcotest.(check (list (pair int string))) "hung" [ (0, "spinner") ] o.hung

let test_failure_capture () =
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  ignore (Scheduler.spawn s ~name:"ok" (fun () -> Scheduler.yield ()));
  ignore (Scheduler.spawn s ~name:"bad" (fun () -> failwith "boom"));
  let o = Scheduler.run s in
  Alcotest.(check int) "one finished" 1 (List.length o.finished);
  (match o.failed with
  | [ (_, name, Failure m) ] ->
      Alcotest.(check string) "name" "bad" name;
      Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected one failure");
  Alcotest.(check bool) "not completed" false (Scheduler.completed o)

let test_killed_unwinds () =
  let s = Scheduler.create ~step_budget:10 ~rng:(Rng.create 1) () in
  let cleaned = ref false in
  ignore
    (Scheduler.spawn s ~name:"w" (fun () ->
         Fun.protect
           ~finally:(fun () -> cleaned := true)
           (fun () ->
             while true do
               Scheduler.yield ()
             done)));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "finalizer ran on kill" true !cleaned

let test_spawn_while_running_rejected () =
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  let failed = ref false in
  ignore
    (Scheduler.spawn s ~name:"w" (fun () ->
         match Scheduler.spawn s ~name:"x" (fun () -> ()) with
         | exception Invalid_argument _ -> failed := true
         | _ -> ()));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "spawn rejected mid-run" true !failed

let test_on_step () =
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  let steps = ref [] in
  ignore (Scheduler.spawn s ~name:"w" (fun () -> Scheduler.yield ()));
  let o = Scheduler.run ~on_step:(fun tid -> steps := tid :: !steps) s in
  Alcotest.(check int) "on_step per step" o.steps (List.length !steps)

(* Satellite (PR 5): Obs metrics must record the per-run step *delta*.
   [t.steps] is cumulative (the budget and outcome observe it), so a
   reused scheduler value used to re-add the running total on every run. *)
let test_metrics_record_per_run_delta () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  Obs.Metrics.reset ();
  let s = Scheduler.create ~rng:(Rng.create 7) () in
  for _ = 1 to 3 do
    ignore
      (Scheduler.spawn s ~name:"w" (fun () ->
           Scheduler.yield ();
           Scheduler.yield ()))
  done;
  let steps_total () =
    List.fold_left
      (fun acc (r : Obs.Metrics.reading) ->
        match r.r_value with
        | Obs.Metrics.Counter n when String.equal r.r_name "sched_steps_total" -> acc + n
        | _ -> acc)
      0 (Obs.Metrics.snapshot ())
  in
  let o1 = Scheduler.run s in
  Alcotest.(check int) "first run records its steps" o1.steps (steps_total ());
  (* Re-running a finished scheduler takes no steps: the counter must not
     move, even though outcome.steps stays cumulative. *)
  let o2 = Scheduler.run s in
  Alcotest.(check int) "outcome.steps stays cumulative" o1.steps o2.steps;
  Alcotest.(check int) "re-run adds only the delta (0)" o1.steps (steps_total ());
  (* A POR run samples step time like any other: 130 steps give two
     samples. *)
  let step_samples () =
    List.fold_left
      (fun acc (r : Obs.Metrics.reading) ->
        match r.r_value with
        | Obs.Metrics.Histogram { count; _ } when String.equal r.r_name "sched_step_seconds" ->
            acc + count
        | _ -> acc)
      0 (Obs.Metrics.snapshot ())
  in
  let before = step_samples () in
  let s = Scheduler.create ~rng:(Rng.create 7) () in
  let por =
    {
      Scheduler.pending = [| 1; 1 |];
      step_fp = [| 0 |];
      independent = (fun _ _ -> true);
      spin = (fun _ _ -> false);
      pruned_picks = 0;
      forced_wakes = 0;
    }
  in
  for _ = 1 to 2 do
    ignore
      (Scheduler.spawn s ~name:"w" (fun () ->
           for _ = 1 to 64 do
             por.step_fp.(0) <- 1;
             Scheduler.yield ()
           done))
  done;
  let o = Scheduler.run ~por s in
  Alcotest.(check int) "POR run took every step" 130 o.steps;
  Alcotest.(check int) "POR run samples step time" (before + 2) (step_samples ())

(* Satellite (PR 5): the index-based pick of [run] must consume the exact
   RNG sequence of the legacy list-based [Rng.pick] loop over the same
   runnable sets, and produce the same schedule.  [run_reference] *is* the
   legacy loop, so running both on identical programs and comparing the
   picked-tid trace, the outcome, and the subsequent RNG draws (stream
   position) pins the invariant across seeds, fiber counts, and budgets.
   The same holds for [run ~por] whenever no fiber is put to sleep: with
   hooks that never report a footprint, and with hooks whose footprints
   never commute. *)
let prop_pick_stream_compatible =
  QCheck.Test.make
    ~name:"scheduler: run ≡ run_reference (RNG stream + schedule + outcome)" ~count:120
    QCheck.(
      quad small_int (int_range 1 12) (int_range 0 10) (int_range 1 400))
    (fun (seed, nfibers, yields, budget) ->
      let run_with runner =
        let rng = Rng.create seed in
        let s = Scheduler.create ~step_budget:budget ~rng () in
        (* Fibers differ in length (i mod 3 extra yields) so they leave the
           runnable set at staggered times, and every third fiber crashes
           at its end, exercising the Crashed removal path too. *)
        for i = 0 to nfibers - 1 do
          ignore
            (Scheduler.spawn s ~name:(string_of_int i) (fun () ->
                 for _ = 1 to yields + (i mod 3) do
                   Scheduler.yield ()
                 done;
                 if i mod 3 = 2 then failwith "boom"))
        done;
        let trace = ref [] in
        let o = runner ~on_step:(fun tid -> trace := tid :: !trace) s in
        let stream_tail = List.init 3 (fun _ -> Rng.next rng) in
        ( List.rev !trace,
          o.Scheduler.steps,
          List.sort compare o.finished,
          o.hung,
          List.map (fun (t, n, _) -> (t, n)) o.failed,
          stream_tail )
      in
      let reference = run_with (fun ~on_step s -> Scheduler.run_reference ~on_step s) in
      let hooks ~independent ~spin =
        {
          Scheduler.pending = Array.make nfibers 1;
          step_fp = [| 0 |];
          independent;
          spin;
          pruned_picks = 0;
          forced_wakes = 0;
        }
      in
      (* POR hooks that never report an executed footprint: pending ops are
         known and everything "commutes", yet nobody may sleep. *)
      let silent = hooks ~independent:(fun _ _ -> true) ~spin:(fun _ _ -> true) in
      (* Every step reports a footprint, but nothing commutes or spins. *)
      let dependent = hooks ~independent:(fun _ _ -> false) ~spin:(fun _ _ -> false) in
      run_with (fun ~on_step s -> Scheduler.run ~on_step s) = reference
      && run_with (fun ~on_step s -> Scheduler.run ~on_step ~por:silent s) = reference
      && run_with (fun ~on_step s ->
             Scheduler.run
               ~on_step:(fun tid ->
                 dependent.step_fp.(0) <- 1;
                 on_step tid)
               ~por:dependent s)
         = reference
      && silent.pruned_picks = 0
      && dependent.pruned_picks = 0)

let prop_all_fibers_complete =
  QCheck.Test.make ~name:"scheduler: every fiber completes within budget" ~count:100
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let s = Scheduler.create ~rng:(Rng.create seed) () in
      let done_ = Array.make n false in
      for i = 0 to n - 1 do
        ignore
          (Scheduler.spawn s ~name:"w" (fun () ->
               for _ = 1 to 5 do
                 Scheduler.yield ()
               done;
               done_.(i) <- true))
      done;
      let o = Scheduler.run s in
      Array.for_all Fun.id done_ && List.length o.finished = n)

let suite =
  [
    Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
    Alcotest.test_case "fibers interleave" `Quick test_interleaving;
    Alcotest.test_case "deterministic given seed" `Quick test_determinism;
    Alcotest.test_case "budget exhaustion = hang" `Quick test_budget_hang;
    Alcotest.test_case "failures are captured" `Quick test_failure_capture;
    Alcotest.test_case "killed fibers unwind" `Quick test_killed_unwinds;
    Alcotest.test_case "spawn while running rejected" `Quick test_spawn_while_running_rejected;
    Alcotest.test_case "on_step callback" `Quick test_on_step;
    Alcotest.test_case "metrics record per-run delta" `Quick test_metrics_record_per_run_delta;
    QCheck_alcotest.to_alcotest prop_pick_stream_compatible;
    QCheck_alcotest.to_alcotest prop_all_fibers_complete;
  ]
