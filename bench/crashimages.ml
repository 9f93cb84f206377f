(* Crash-image budget bench (PR 8): what systematic crash-image
   enumeration (Pmem.Crash_images) costs and what it buys.

   For each target we run the same seeded fuzzing session at post-failure
   image budgets 1 / 4 / 16 (--crash-images; 1 is the historical
   single-image validation) and report unique validated bug groups, wall
   time, and bugs per CPU-second.  figure1-planted and p-clht measure the
   overhead on targets whose bugs are already visible on the base image;
   torn-planted carries a seeded torn store that only an enumerated image
   can expose, so its bug count moves from 0 to >0 as the budget grows.
   The capture rows time [Crash_images.capture] itself: a pool of
   1k/4k/16k words booted from its checkpoint, with the same 8 touched
   words, captured after every store.  A surface is a delta over the
   shared checkpoint image, so ns and words per capture must stay flat as
   the pool grows.
   The captures rows count the surfaces a session's checkers request
   (crash_captures_total) at CLI defaults (seed 5, 300 campaigns) against
   its first sightings: a worker captures only for findings it does not
   know yet, so with one worker the two must be equal.
   Writes BENCH_crashimages.json (gitignored; CI uploads it). *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')
let budgets = [ 1; 4; 16 ]

let capture_sizes = [ 1024; 4096; 16384 ]
let capture_rounds = 20_000

(* One capture per round on a checkpoint-booted pool of [size] words: 4
   fenced words, 2 flushed and 2 dirty ones.  Each round first re-stores a
   dirty word's own value, which starts a new pool instant (so the
   capture is not shared) without changing the surface. *)
let capture_cost size =
  let module Pool = Pmem.Pool in
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
  let round () =
    Pool.store p ~tid:0 ~instr:1 33 v;
    ignore (Sys.opaque_identity (Pmem.Crash_images.capture p))
  in
  for _ = 1 to capture_rounds / 10 do
    round ()
  done;
  let words0 = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let t0 = Obs.Clock.now () in
  for _ = 1 to capture_rounds do
    round ()
  done;
  let s = Obs.Clock.elapsed t0 in
  let words = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. words0 in
  let n = float_of_int capture_rounds in
  (1e9 *. s /. n, words /. n)

let capture_rows ppf =
  Format.fprintf ppf "@.Crash-surface capture cost vs pool size (8 touched words).@.";
  hr ppf;
  Format.fprintf ppf "%-12s %14s %16s@." "pool words" "ns/capture" "words/capture";
  hr ppf;
  List.map
    (fun size ->
      let ns, words = capture_cost size in
      Format.fprintf ppf "%-12d %14.1f %16.1f@." size ns words;
      Obs.Json.Obj
        [
          ("pool_words", Obs.Json.Int size);
          ("touched_words", Obs.Json.Int 8);
          ("ns_per_capture", Obs.Json.Float ns);
          ("words_per_capture", Obs.Json.Float words);
        ])
    capture_sizes

let captures_total () =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r with
      | { r_name = "crash_captures_total"; r_labels = []; r_value = Counter n } -> n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

let captures_rows ppf =
  Format.fprintf ppf "@.Crash surfaces captured per session vs first sightings (CLI defaults).@.";
  hr ppf;
  Format.fprintf ppf "%-16s %10s %10s %16s@." "target" "campaigns" "captures" "first sightings";
  hr ppf;
  let enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled enabled) @@ fun () ->
  List.map
    (fun (name, target) ->
      let cfg = Fuzzer.Config.make ~max_campaigns:300 ~master_seed:5 ~static_prepass:true () in
      let before = captures_total () in
      let s = Fuzzer.run target cfg in
      let captures = captures_total () - before in
      let firsts = List.length (Report.findings s.report @ Report.sync_findings s.report) in
      Format.fprintf ppf "%-16s %10d %10d %16d@." name s.campaigns_run captures firsts;
      Obs.Json.Obj
        [
          ("target", Obs.Json.String name);
          ("campaigns", Obs.Json.Int s.campaigns_run);
          ("captures", Obs.Json.Int captures);
          ("first_sightings", Obs.Json.Int firsts);
        ])
    [
      ("memcached-pmem", Workloads.Memcached.target);
      ("p-clht", Workloads.Pclht.target);
      ("fast-fair", Workloads.Fastfair.target);
    ]

let run ppf =
  let capture = capture_rows ppf in
  let captures = captures_rows ppf in
  Format.fprintf ppf "@.Crash images: validation cost/yield vs the image budget (--crash-images).@.";
  hr ppf;
  let targets =
    [
      ("figure1-planted", Workloads.Figure1.planted, 120);
      ("p-clht", Workloads.Pclht.target, 40);
      ("torn-planted", Workloads.Tornstore.target, 60);
    ]
  in
  let json_rows = ref [] in
  Format.fprintf ppf "%-16s %7s %10s %6s %9s %13s@." "target" "budget" "campaigns" "bugs"
    "wall (s)" "bugs/cpu-s";
  hr ppf;
  List.iter
    (fun (name, (target : Pmrace.Target.t), campaigns) ->
      List.iter
        (fun budget ->
          let cfg =
            Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:5 ~crash_images:budget ()
          in
          let t0 = Obs.Clock.now () in
          let s = Fuzzer.run target cfg in
          let wall = Obs.Clock.elapsed t0 in
          let bugs = List.length (Report.bug_groups s.report) in
          let per_cpu_s = float_of_int bugs /. Float.max 1e-9 wall in
          Format.fprintf ppf "%-16s %7d %10d %6d %9.2f %13.1f@." name budget s.campaigns_run
            bugs wall per_cpu_s;
          json_rows :=
            Obs.Json.Obj
              [
                ("target", Obs.Json.String name);
                ("budget", Obs.Json.Int budget);
                ("campaigns", Obs.Json.Int s.campaigns_run);
                ("bugs", Obs.Json.Int bugs);
                ("wall_s", Obs.Json.Float wall);
                ("bugs_per_cpu_sec", Obs.Json.Float per_cpu_s);
              ]
            :: !json_rows)
        budgets)
    targets;
  hr ppf;
  Format.fprintf ppf
    "(budget 1 = the base crash image only, bit-identical to single-image validation;@.";
  Format.fprintf ppf
    " torn-planted's seeded bug 105 is reachable only via an enumerated image.)@.";
  let json =
    Obs.Json.Obj
      [
        ("rows", Obs.Json.List (List.rev !json_rows));
        ("capture", Obs.Json.List capture);
        ("captures", Obs.Json.List captures);
      ]
  in
  let oc = open_out "BENCH_crashimages.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "(wrote BENCH_crashimages.json)@."
