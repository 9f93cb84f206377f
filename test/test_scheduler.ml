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
  (* A POR run records its per-run delta like any other. *)
  let before = steps_total () in
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
  Alcotest.(check int) "POR run records its steps" (before + 130) (steps_total ())

(* Satellite (PR 5): the index-based pick of [run] must consume the exact
   RNG sequence of the legacy list-based [Rng.pick] loop over the same
   runnable sets, and produce the same schedule.  [run_reference] *is* the
   legacy loop, so running both on identical programs and comparing the
   picked-tid trace, the outcome, and the subsequent RNG draws (stream
   position) pins the invariant across seeds, fiber counts, and budgets.
   The same holds for [run ~por] whenever no fiber is put to sleep: with
   hooks that never report a footprint, and with hooks whose footprints
   never commute. *)
let stream_compatible ~seed ~budget lengths =
  let nfibers = Array.length lengths in
  let run_with runner =
    let rng = Rng.create seed in
    let s = Scheduler.create ~step_budget:budget ~rng () in
    (* Fiber [i] yields [lengths.(i)] times; every third fiber crashes at
       its end, exercising the Crashed removal path too. *)
    Array.iteri
      (fun i len ->
        ignore
          (Scheduler.spawn s ~name:(string_of_int i) (fun () ->
               for _ = 1 to len do
                 Scheduler.yield ()
               done;
               if i mod 3 = 2 then failwith "boom")))
      lengths;
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
  && dependent.pruned_picks = 0

let prop_pick_stream_compatible =
  QCheck.Test.make
    ~name:"scheduler: run ≡ run_reference (RNG stream + schedule + outcome)" ~count:120
    QCheck.(
      quad small_int (int_range 1 12) (int_range 0 10) (int_range 1 400))
    (fun (seed, nfibers, yields, budget) ->
      (* Fibers differ in length (i mod 3 extra yields) so they leave the
         runnable set at staggered times. *)
      stream_compatible ~seed ~budget (Array.init nfibers (fun i -> yields + (i mod 3))))

(* Fibers of unrelated lengths: most runs end with one runnable fiber
   whose every remaining pick is a self-pick, and some exhaust the budget
   during that tail. *)
let prop_pick_stream_compatible_random_lengths =
  QCheck.Test.make
    ~name:"scheduler: run ≡ run_reference with fibers of random lengths" ~count:120
    QCheck.(
      triple small_int (int_range 1 600) (list_of_size Gen.(int_range 1 8) (int_range 0 200)))
    (fun (seed, budget, lengths) -> stream_compatible ~seed ~budget (Array.of_list lengths))

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

(* Budget exhaustion mid self-pick tail: three spinners of which two stop
   early, so the last picks of longer budgets all land on the survivor.
   The hung list and step count must match the reference loop at every
   budget. *)
let test_budget_on_self_pick () =
  let program s =
    List.iter
      (fun (name, n) ->
        ignore
          (Scheduler.spawn s ~name (fun () ->
               for _ = 1 to n do
                 Scheduler.yield ()
               done)))
      [ ("a", 3); ("b", 1_000); ("c", 5) ]
  in
  let self_picks = ref 0 in
  for budget = 1 to 40 do
    let outcome runner =
      let s = Scheduler.create ~step_budget:budget ~rng:(Rng.create 3) () in
      program s;
      let last = ref (-1) in
      let o =
        runner
          ~on_step:(fun tid ->
            if tid = !last then incr self_picks;
            last := tid)
          s
      in
      (o.Scheduler.steps, o.hung, o.finished)
    in
    let reference = outcome (fun ~on_step s -> Scheduler.run_reference ~on_step s) in
    Alcotest.(check (triple int (list (pair int string)) (list int)))
      (Printf.sprintf "budget %d" budget) reference
      (outcome (fun ~on_step s -> Scheduler.run ~on_step s))
  done;
  Alcotest.(check bool) "self-picks exercised" true (!self_picks > 0)

(* A hook that raises must leave [run] with its exception.  The fibers
   catch everything around their yields: had the exception surfaced
   inside the fiber that happened to be running, it would be swallowed
   there (or turn into that fiber's crash) instead. *)
let test_hook_exceptions_escape () =
  let caught = ref 0 in
  let program s por =
    for _ = 1 to 3 do
      ignore
        (Scheduler.spawn s ~name:"w" (fun () ->
             for _ = 1 to 20 do
               (match por with Some p -> p.Scheduler.step_fp.(0) <- 1 | None -> ());
               try Scheduler.yield () with _ -> incr caught
             done))
    done
  in
  let raises label ?por ?on_step () =
    let s = Scheduler.create ~rng:(Rng.create 5) () in
    program s por;
    match Scheduler.run ?on_step ?por s with
    | exception Exit -> ()
    | o -> Alcotest.failf "%s: run returned (%a)" label Scheduler.pp_outcome o
  in
  let calls = ref 0 in
  let after n = fun () -> incr calls; if !calls >= n then raise Exit in
  let por ?(independent = fun _ _ -> true) ?(spin = fun _ _ -> false) () =
    {
      Scheduler.pending = [| 1; 1; 1 |];
      step_fp = [| 0 |];
      independent;
      spin;
      pruned_picks = 0;
      forced_wakes = 0;
    }
  in
  List.iter
    (fun n ->
      calls := 0;
      raises (Printf.sprintf "on_step #%d" n) ~on_step:(fun _ -> after n ()) ();
      calls := 0;
      raises
        (Printf.sprintf "independent #%d" n)
        ~por:(por ~independent:(fun _ _ -> after n (); true) ())
        ();
      calls := 0;
      raises (Printf.sprintf "spin #%d" n) ~por:(por ~spin:(fun _ _ -> after n (); false) ()) ())
    [ 1; 2; 7 ];
  Alcotest.(check int) "no fiber saw a hook's exception" 0 !caught;
  (* The domain is not left inside the aborted run. *)
  match Scheduler.yield () with
  | exception Effect.Unhandled _ -> ()
  | () -> Alcotest.fail "yield after an aborted run returned"

(* A fiber may run a whole nested scheduler.  The inner run draws from its
   own generator, so the outer schedule is the one the same program
   produces without the nested run, and the inner schedule the one it
   produces standalone.  The inner program ends by killing a spinner
   whose finaliser yields once more: that yield belongs to neither run's
   schedule. *)
let test_nested_run () =
  let inner runner trace =
    let s = Scheduler.create ~step_budget:30 ~rng:(Rng.create 9) () in
    for i = 0 to 2 do
      ignore
        (Scheduler.spawn s ~name:"inner" (fun () ->
             for _ = 1 to 4 do
               Buffer.add_char trace (Char.chr (Char.code 'a' + i));
               Scheduler.yield ()
             done))
    done;
    ignore
      (Scheduler.spawn s ~name:"spinner" (fun () ->
           Fun.protect ~finally:Scheduler.yield (fun () ->
               while true do
                 Buffer.add_char trace 's';
                 Scheduler.yield ()
               done)));
    runner s
  in
  let outer ~nest =
    let s = Scheduler.create ~rng:(Rng.create 4) () in
    let trace = Buffer.create 32 and inner_trace = Buffer.create 16 in
    let inner_outcome = ref None in
    for i = 0 to 2 do
      ignore
        (Scheduler.spawn s ~name:"outer" (fun () ->
             for k = 1 to 6 do
               Buffer.add_char trace (Char.chr (Char.code '0' + i));
               (match nest with
               | Some runner when i = 1 && k = 3 ->
                   inner_outcome := Some (inner runner inner_trace)
               | _ -> ());
               Scheduler.yield ()
             done))
    done;
    let o = Scheduler.run s in
    (o, Buffer.contents trace, Buffer.contents inner_trace, !inner_outcome)
  in
  let o', trace', _, _ = outer ~nest:None in
  List.iter
    (fun (label, runner) ->
      let standalone = Buffer.create 16 in
      let so = inner runner standalone in
      let o, trace, inner_trace, inner_o = outer ~nest:(Some runner) in
      let check what = Printf.sprintf "%s: %s" label what in
      Alcotest.(check string) (check "outer schedule unchanged") trace' trace;
      Alcotest.(check int) (check "outer steps") o'.steps o.steps;
      Alcotest.(check bool) (check "outer completed") true (Scheduler.completed o);
      Alcotest.(check string) (check "inner schedule as standalone") (Buffer.contents standalone)
        inner_trace;
      match inner_o with
      | Some io ->
          Alcotest.(check (list (pair int string))) (check "spinner hung") [ (3, "spinner") ] io.Scheduler.hung;
          Alcotest.(check int) (check "inner steps") so.steps io.steps
      | None -> Alcotest.fail (check "nested run did not happen"))
    [ ("run", fun s -> Scheduler.run s); ("run_reference", fun s -> Scheduler.run_reference s) ]

let test_yield_outside_run () =
  let unhandled label =
    match Scheduler.yield () with
    | exception Effect.Unhandled _ -> ()
    | () -> Alcotest.failf "%s: yield returned" label
  in
  unhandled "before any run";
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  ignore (Scheduler.spawn s ~name:"w" (fun () -> Scheduler.yield ()));
  ignore (Scheduler.run s);
  unhandled "after a run"

(* Synthetic POR hooks that really sleep, wake, park spinners and force
   wakes.  Footprints are word numbers: steps on distinct words commute,
   9 conflicts with everything, and a fiber that executed 7 with 7
   pending is spin-retrying. *)
let synthetic_hooks pending step_fp =
  {
    Scheduler.pending;
    step_fp;
    independent = (fun a b -> a <> b && a <> 9 && b <> 9);
    spin = (fun executed pending -> executed = 7 && pending = 7);
    pruned_picks = 0;
    forced_wakes = 0;
  }

(* Sleep sets under the synthetic hooks.  [run_reference] has no POR
   arm, so the schedules are pinned as recorded from the loop that drove
   each step from outside the fiber. *)
let por_trace seed =
  let scripts =
    [| [| 1; 1; 2; 1; 9; 1 |]; [| 2; 2; 3; 7; 7; 7; 3 |]; [| 1; 4; 4; 7; 4; 1 |]; [| 3; 7; 7; 7; 2; 2 |] |]
  in
  let rng = Rng.create seed in
  let s = Scheduler.create ~rng () in
  let pending = Array.make (Array.length scripts) 0 and step_fp = [| 0 |] in
  Array.iteri
    (fun tid ops ->
      let len = Array.length ops in
      pending.(tid) <- ops.(0);
      ignore
        (Scheduler.spawn s ~name:(string_of_int tid) (fun () ->
             Array.iteri
               (fun k fp ->
                 step_fp.(0) <- fp;
                 pending.(tid) <- (if k + 1 < len then ops.(k + 1) else 0);
                 Scheduler.yield ())
               ops)))
    scripts;
  let por = synthetic_hooks pending step_fp in
  let trace = Buffer.create 64 in
  let o = Scheduler.run ~on_step:(fun tid -> Buffer.add_char trace (Char.chr (48 + tid))) ~por s in
  Printf.sprintf "%s steps=%d pruned=%d forced=%d next=%016Lx" (Buffer.contents trace) o.steps
    por.pruned_picks por.forced_wakes (Rng.next rng)

let test_por_golden () =
  Alcotest.(check (list string)) "schedules, pruning counts and stream position"
    [
      "01233011132223130030113221200 steps=29 pruned=35 forced=1 next=ff6c67e81909778a";
      "33300002222222033313111100111 steps=29 pruned=28 forced=3 next=4d06d2051c9d6d82";
      "33031202223311303000022211111 steps=29 pruned=35 forced=4 next=df36db5cde98af50";
      "22332232220000000331311131111 steps=29 pruned=28 forced=3 next=a9c1af39951c01d1";
      "22331222232000111001003333111 steps=29 pruned=32 forced=3 next=d821c5695e0453b6";
      "02223311322200200333300111111 steps=29 pruned=27 forced=4 next=0204913ed24d01dd";
      "11203131022322313330022000111 steps=29 pruned=37 forced=1 next=6a3f7fb9fcd4241d";
      "12022222233131101311310330000 steps=29 pruned=25 forced=3 next=adfe7b65a8546f67";
    ]
    (List.init 8 (fun i -> por_trace (i + 1)))

(* [yield_n n] is specified as [n] calls to [yield].  Random fiber
   programs mix yields, stalls of 0-60 steps, finishing and raising; each
   runs once as written and once with every stall expanded into the
   yield loop, with and without [synthetic_hooks] (each op reports its
   footprint and the next op's as pending, like the recorder does before
   the sync policy's stall).  The picked-tid
   sequence, the outcome, the POR counters, the stream position and the
   number of fibers killed inside a stall must agree at three budgets:
   unbounded, random, and one that ends at the first yield of a stall of
   two or more steps, so that fiber is killed still owing steps. *)
type stall_op = Op_yield of int | Op_stall of int * int (* footprint, stall length *)

let stall_program_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map (fun fp -> Op_yield fp) (int_range 1 9));
          (2, map2 (fun fp k -> Op_stall (fp, k)) (int_range 1 9) (int_range 0 60));
        ]
    in
    let fiber = pair (list_size (int_range 0 6) op) bool in
    (* Fiber 0 always stalls for two or more steps somewhere, so every
       program has a budget that ends inside a stall. *)
    map3
      (fun fibers (pos, fp, k) (seed, budget) ->
        let ops, raises = List.hd fibers in
        let pos = min pos (List.length ops) in
        let ops =
          List.filteri (fun i _ -> i < pos) ops
          @ (Op_stall (fp, k) :: List.filteri (fun i _ -> i >= pos) ops)
        in
        (seed, budget, Array.of_list ((ops, raises) :: List.tl fibers)))
      (list_size (int_range 1 5) fiber)
      (triple (int_range 0 6) (int_range 1 9) (int_range 2 60))
      (pair small_nat small_nat))

let print_stall_program (seed, budget, fibers) =
  let op = function
    | Op_yield fp -> Printf.sprintf "y%d" fp
    | Op_stall (fp, k) -> Printf.sprintf "s%d*%d" fp k
  in
  Printf.sprintf "seed %d, budget pick %d: %s" seed budget
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun (ops, raises) ->
               String.concat " " (List.map op ops) ^ if raises then " raise" else " finish")
             fibers)))

(* Run [fibers] under [runner]; [expand] replaces every [yield_n] by its
   loop.  Returns what the comparison looks at, plus the step count at
   which the first stall of two or more steps began. *)
let run_stall_program ~runner ~expand ~por ~budget (seed, _, fibers) =
  let rng = Rng.create seed in
  let s = Scheduler.create ~step_budget:budget ~rng () in
  let n = Array.length fibers in
  let pending = Array.make n 0 and step_fp = [| 0 |] in
  let steps = ref 0 and first_stall = ref None and killed_in_stall = ref 0 in
  let fp_of = function Op_yield fp | Op_stall (fp, _) -> fp in
  Array.iteri
    (fun tid (ops, raises) ->
      let ops = Array.of_list ops in
      let len = Array.length ops in
      if por && len > 0 then pending.(tid) <- fp_of ops.(0);
      ignore
        (Scheduler.spawn s ~name:(string_of_int tid) (fun () ->
             Array.iteri
               (fun k op ->
                 if por then begin
                   step_fp.(0) <- fp_of op;
                   pending.(tid) <- (if k + 1 < len then fp_of ops.(k + 1) else 0)
                 end;
                 match op with
                 | Op_yield _ -> Scheduler.yield ()
                 | Op_stall (_, n) -> (
                     if n >= 2 && !first_stall = None then first_stall := Some !steps;
                     try
                       if expand then
                         for _ = 1 to n do
                           Scheduler.yield ()
                         done
                       else Scheduler.yield_n n
                     with Scheduler.Killed ->
                       incr killed_in_stall;
                       raise Scheduler.Killed))
               ops;
             if raises then failwith "boom")))
    fibers;
  let hooks = synthetic_hooks pending step_fp in
  let trace = ref [] in
  let on_step tid =
    incr steps;
    trace := tid :: !trace
  in
  let o = runner ~on_step ~por:(if por then Some hooks else None) s in
  ( ( List.rev !trace,
      (o.Scheduler.steps, List.sort compare o.finished, o.hung),
      List.map (fun (t, n, _) -> (t, n)) o.failed,
      (hooks.pruned_picks, hooks.forced_wakes, Rng.next rng, !killed_in_stall) ),
    !first_stall )

let run_sched ~on_step ~por s = Scheduler.run ~on_step ?por s

let prop_yield_n_is_n_yields =
  QCheck.Test.make ~name:"scheduler: yield_n n ≡ n yields" ~count:150
    (QCheck.make ~print:print_stall_program stall_program_gen)
    (fun ((_, budget_pick, fibers) as program) ->
      let total =
        Array.fold_left
          (fun acc (ops, _) ->
            List.fold_left
              (fun acc -> function Op_yield _ -> acc + 1 | Op_stall (_, k) -> acc + k)
              (acc + 1) ops)
          0 fibers
      in
      let random_budget = 1 + (budget_pick mod (total + 5)) in
      List.for_all
        (fun por ->
          let run ~expand budget =
            run_stall_program ~runner:run_sched ~expand ~por ~budget program
          in
          let same budget = fst (run ~expand:false budget) = fst (run ~expand:true budget) in
          let stall_budget = Option.get (snd (run ~expand:true (total + 1))) in
          let (_, (_, _, hung), _, (_, _, _, killed)), _ = run ~expand:false stall_budget in
          same (total + 1) && same random_budget && same stall_budget && hung <> [] && killed > 0)
        [ false; true ])

let prop_yield_n_run_reference =
  QCheck.Test.make ~name:"scheduler: run ≡ run_reference with yield_n stalls" ~count:150
    (QCheck.make ~print:print_stall_program stall_program_gen)
    (fun program ->
      List.for_all
        (fun budget ->
          let run runner = fst (run_stall_program ~runner ~expand:false ~por:false ~budget program) in
          run run_sched = run (fun ~on_step ~por:_ s -> Scheduler.run_reference ~on_step s))
        [ 1; 7; 40; 200_000 ])

(* A fiber still owing stall steps when the budget runs out is hung like
   one suspended in a yield loop, and it unwinds exactly once. *)
let test_yield_n_budget_hang () =
  let s = Scheduler.create ~step_budget:10 ~rng:(Rng.create 2) () in
  let finalised = ref 0 in
  ignore
    (Scheduler.spawn s ~name:"stalled" (fun () ->
         Fun.protect ~finally:(fun () -> incr finalised) (fun () -> Scheduler.yield_n 1_000)));
  ignore (Scheduler.spawn s ~name:"quick" (fun () -> Scheduler.yield ()));
  let o = Scheduler.run s in
  Alcotest.(check int) "steps capped" 10 o.steps;
  Alcotest.(check (list (pair int string))) "hung" [ (0, "stalled") ] o.hung;
  Alcotest.(check (list int)) "finished" [ 1 ] o.finished;
  Alcotest.(check int) "finaliser ran once" 1 !finalised

let test_yield_n_nonpositive () =
  let trace runner stall =
    let s = Scheduler.create ~rng:(Rng.create 6) () in
    for _ = 1 to 3 do
      ignore
        (Scheduler.spawn s ~name:"w" (fun () ->
             Scheduler.yield ();
             stall ();
             Scheduler.yield ()))
    done;
    let picks = ref [] in
    let o = runner ~on_step:(fun tid -> picks := tid :: !picks) s in
    (o.Scheduler.steps, List.rev !picks)
  in
  let run ~on_step s = Scheduler.run ~on_step s in
  let reference ~on_step s = Scheduler.run_reference ~on_step s in
  let none = trace run ignore in
  Alcotest.(check int) "three steps a fiber" 9 (fst none);
  List.iter
    (fun n ->
      let label = Printf.sprintf "yield_n %d" n in
      Alcotest.(check (pair int (list int)))
        (label ^ " under run") none
        (trace run (fun () -> Scheduler.yield_n n));
      Alcotest.(check (pair int (list int)))
        (label ^ " under run_reference") none
        (trace reference (fun () -> Scheduler.yield_n n)))
    [ 0; -3 ];
  (* Outside any run they return without performing anything. *)
  Scheduler.yield_n 0;
  Scheduler.yield_n (-3)

let test_yield_n_outside_run () =
  List.iter
    (fun n ->
      match Scheduler.yield_n n with
      | exception Effect.Unhandled _ -> ()
      | () -> Alcotest.failf "yield_n %d returned" n)
    [ 1; 400 ];
  let s = Scheduler.create ~rng:(Rng.create 1) () in
  ignore (Scheduler.spawn s ~name:"w" (fun () -> Scheduler.yield_n 5));
  ignore (Scheduler.run s);
  match Scheduler.yield_n 3 with
  | exception Effect.Unhandled _ -> ()
  | () -> Alcotest.fail "yield_n after a run returned"

(* [on_step] raises at the first pick of a fiber that owes stall steps:
   that pick is charged without resuming the fiber, on the stack of
   whichever fiber decided it.  The exception must leave [run]; no fiber,
   all of which catch everything around their yields, may see it. *)
let test_yield_n_on_step_raises () =
  let caught = ref 0 and raised = ref 0 in
  for seed = 1 to 12 do
    let s = Scheduler.create ~rng:(Rng.create seed) () in
    let stalling = ref false in
    ignore
      (Scheduler.spawn s ~name:"stall" (fun () ->
           Scheduler.yield ();
           stalling := true;
           try Scheduler.yield_n 50 with _ -> incr caught));
    for _ = 1 to seed mod 3 do
      ignore
        (Scheduler.spawn s ~name:"busy" (fun () ->
             for _ = 1 to 40 do
               try Scheduler.yield () with _ -> incr caught
             done))
    done;
    match Scheduler.run ~on_step:(fun tid -> if tid = 0 && !stalling then raise Exit) s with
    | exception Exit -> incr raised
    | o -> Alcotest.failf "seed %d: run returned (%a)" seed Scheduler.pp_outcome o
  done;
  Alcotest.(check int) "every run raised" 12 !raised;
  Alcotest.(check int) "no fiber saw the exception" 0 !caught;
  match Scheduler.yield () with
  | exception Effect.Unhandled _ -> ()
  | () -> Alcotest.fail "yield after an aborted run returned"

(* A nested run whose fibers stall (and whose budget ends inside a
   stall) leaves the outer schedule as the same program without the
   nested run produces it; the inner schedule is the standalone one. *)
let test_yield_n_nested_run () =
  let inner trace =
    let s = Scheduler.create ~step_budget:60 ~rng:(Rng.create 12) () in
    for i = 0 to 2 do
      ignore
        (Scheduler.spawn s ~name:"inner" (fun () ->
             for _ = 1 to 4 do
               Buffer.add_char trace (Char.chr (Char.code 'a' + i));
               Scheduler.yield_n (3 + (7 * i))
             done))
    done;
    Scheduler.run s
  in
  let outer ~nest =
    let s = Scheduler.create ~rng:(Rng.create 8) () in
    let trace = Buffer.create 32 and inner_trace = Buffer.create 16 in
    let inner_outcome = ref None in
    for i = 0 to 2 do
      ignore
        (Scheduler.spawn s ~name:"outer" (fun () ->
             for k = 1 to 5 do
               Buffer.add_char trace (Char.chr (Char.code '0' + i));
               if nest && i = 2 && k = 2 then inner_outcome := Some (inner inner_trace);
               Scheduler.yield_n (1 + k)
             done))
    done;
    let o = Scheduler.run s in
    (o, Buffer.contents trace, Buffer.contents inner_trace, !inner_outcome)
  in
  let o', trace', _, _ = outer ~nest:false in
  let standalone = Buffer.create 16 in
  let so = inner standalone in
  let o, trace, inner_trace, inner_o = outer ~nest:true in
  Alcotest.(check string) "outer schedule unchanged" trace' trace;
  Alcotest.(check int) "outer steps" o'.steps o.steps;
  Alcotest.(check bool) "outer completed" true (Scheduler.completed o);
  Alcotest.(check string) "inner schedule as standalone" (Buffer.contents standalone) inner_trace;
  Alcotest.(check bool) "inner budget ends inside a stall" true (so.Scheduler.hung <> []);
  match inner_o with
  | Some io ->
      Alcotest.(check int) "inner steps" so.steps io.Scheduler.steps;
      Alcotest.(check (list (pair int string))) "inner hung" so.hung io.hung
  | None -> Alcotest.fail "nested run did not happen"

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
    Alcotest.test_case "budget exhausted on a self-pick" `Quick test_budget_on_self_pick;
    Alcotest.test_case "hook exceptions escape run" `Quick test_hook_exceptions_escape;
    Alcotest.test_case "nested run" `Quick test_nested_run;
    Alcotest.test_case "yield outside a run is unhandled" `Quick test_yield_outside_run;
    Alcotest.test_case "POR schedule golden" `Quick test_por_golden;
    Alcotest.test_case "yield_n: budget ends inside a stall" `Quick test_yield_n_budget_hang;
    Alcotest.test_case "yield_n: n <= 0 takes no step" `Quick test_yield_n_nonpositive;
    Alcotest.test_case "yield_n outside a run is unhandled" `Quick test_yield_n_outside_run;
    Alcotest.test_case "yield_n: on_step raising on an owed pick" `Quick
      test_yield_n_on_step_raises;
    Alcotest.test_case "yield_n: nested run" `Quick test_yield_n_nested_run;
    QCheck_alcotest.to_alcotest prop_pick_stream_compatible;
    QCheck_alcotest.to_alcotest prop_pick_stream_compatible_random_lengths;
    QCheck_alcotest.to_alcotest prop_all_fibers_complete;
    QCheck_alcotest.to_alcotest prop_yield_n_is_n_yields;
    QCheck_alcotest.to_alcotest prop_yield_n_run_reference;
  ]
