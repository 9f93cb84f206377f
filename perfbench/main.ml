(* The pmrace benchmark: deterministic work, repeated as identical blocks.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]

   A workload is a fixed list of units of work: seeded fuzzing sessions
   (one worker domain, fixed master seeds) or one triage pass over a
   recorded artifact.  Every unit is bit-reproducible, so repeated blocks
   of the same unit are directly comparable and each block's output is
   checked against the unit's first block.  [--seed] permutes the order
   of a fuzz workload's sessions and never the amount of work: a
   session's cost swings by tens of percent with its master seed, far
   more than any bound the benchmark could hold.  A triage pass always
   replays its bug groups in index order: the order changes the GC state
   each replay meets, and with it the slowest replay's time.

   Warm-up blocks are discarded until the GC counts settle; then blocks
   cycle through the units until [--seconds] have passed.  Timings are
   the fastest of a unit's blocks (host slowdowns only add time),
   scaled to a host of reference speed by [Calib]; per-operation
   latencies are paired by operation index across blocks first.  Block CPU time comes from [Sys.time] (getrusage,
   microsecond resolution), in-block timestamps from the event sink's
   [Obs.Clock].

   [--trace 1] alternates untraced and traced passes.  Traced blocks
   enable [Obs.Metrics] and snapshot it at the phase boundaries the
   benchmark can see; the run prints the per-layer table, the residual
   and the tracing overhead, and writes its spans to DIR.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Artifact = Pmrace.Artifact
module Replay = Pmrace.Replay
module Events = Obs.Events
module J = Obs.Json

let max_warmup_passes = 3
let min_repeats = 3
let ms = 1e3
let us = 1e6
let sum_floats = Array.fold_left ( +. ) 0.

(* {1 Blocks} *)

type 'a block = {
  unit_ix : int;  (** which unit of the workload ran *)
  cpu : float;  (** seconds of process CPU ([Sys.time]) *)
  wall : float;
  start : float;  (** [Obs.Clock] reading at block start *)
  minor_words : float;
  major_collections : int;
  traced : bool;
  readings : Obs.Metrics.reading list;  (** end-of-block snapshot, traced blocks only *)
  out : 'a;
}

type 'a work = { label : string; run : traced:bool -> 'a; fingerprint : 'a -> string }

let run_block ~unit_ix ~traced w =
  Obs.Metrics.set_enabled traced;
  if traced then Obs.Metrics.reset ();
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = Obs.Clock.now () and cpu0 = Sys.time () in
  let out = w.run ~traced in
  let cpu = Sys.time () -. cpu0 and wall = Obs.Clock.elapsed start in
  let minor_words = Gc.minor_words () -. minor0
  and major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let readings = if traced then Obs.Metrics.snapshot () else [] in
  Obs.Metrics.set_enabled false;
  { unit_ix; cpu; wall; start; minor_words; major_collections; traced; readings; out }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type 'a measured = {
  units : 'a work array;
  order : int array;  (** the order timed blocks cycle through the units *)
  warmup : int;  (** blocks discarded before timing *)
  settled : bool;  (** the GC counts settled within [max_warmup_passes] *)
  warm_heap_mb : float;  (** the process's peak heap when warm-up ended *)
  timed : 'a block list;
  mismatched : int;  (** blocks whose fingerprint differed from their unit's first *)
  calib : float array;  (** CPU seconds of the calibration kernel, twice after every block *)
}

(* Warm up until every unit's last two blocks allocated exactly the same
   number of minor words (at most [max_warmup_passes] blocks each), then cycle
   through the units in [order] until [seconds] have passed and every
   unit has run [min_repeats] untraced blocks.  Warm-up runs the units in
   their given order, so it does the same work at every seed.  With
   [trace], every second pass is traced. *)
let measure ~seconds ~trace ~order units =
  let k = Array.length units in
  let reference = Array.make k None and mismatched = ref 0 and calib = ref [] in
  let block i ~traced =
    let b = run_block ~unit_ix:i ~traced units.(i) in
    calib := Calib.time () :: Calib.time () :: !calib;
    let fp = units.(i).fingerprint b.out in
    (match reference.(i) with
    | None -> reference.(i) <- Some fp
    | Some r when String.equal r fp -> ()
    | Some r ->
        incr mismatched;
        Format.eprintf "output check failed (%s): block output@.  %s@.differs from the first block's@.  %s@."
          units.(i).label fp r);
    b
  in
  let last = Array.make k nan and settled = Array.make k false and warmup = ref 0 in
  for _ = 1 to max_warmup_passes do
    Array.iteri
      (fun i ok ->
        if not ok then begin
          let b = block i ~traced:false in
          incr warmup;
          settled.(i) <- Float.equal b.minor_words last.(i);
          last.(i) <- b.minor_words
        end)
      settled
  done;
  let warm_heap_mb = peak_heap_mb () in
  let t1 = Obs.Clock.now () in
  let untraced_runs = Array.make k 0 and traced_runs = Array.make k 0 in
  let enough () =
    Array.for_all (fun c -> c >= min_repeats) untraced_runs
    && ((not trace) || Array.for_all (fun c -> c >= min_repeats) traced_runs)
  in
  let rec go acc b =
    if enough () && Obs.Clock.elapsed t1 >= seconds then List.rev acc
    else begin
      let i = order.(b mod k) and traced = trace && (b / k) land 1 = 1 in
      let runs = if traced then traced_runs else untraced_runs in
      runs.(i) <- runs.(i) + 1;
      go (block i ~traced :: acc) (b + 1)
    end
  in
  let timed = go [] 0 in
  {
    units;
    order;
    warmup = !warmup;
    settled = Array.for_all Fun.id settled;
    warm_heap_mb;
    timed;
    mismatched = !mismatched;
    calib = Array.of_list !calib;
  }

let untraced m = List.filter (fun b -> not b.traced) m.timed
let traced m = List.filter (fun b -> b.traced) m.timed
let floats f bs = Array.of_list (List.map f bs)

(* The blocks of each unit, in unit order. *)
let by_unit m bs = Array.init (Array.length m.units) (fun i -> List.filter (fun b -> b.unit_ix = i) bs)

let pp_measured ppf ~name m =
  Format.fprintf ppf "%s: units [%s]; %d warm-up blocks discarded (GC counts %s), %d timed (%d traced)@."
    name
    (String.concat "; " (Array.to_list (Array.map (fun i -> m.units.(i).label) m.order)))
    m.warmup
    (if m.settled then "settled" else "not settled")
    (List.length m.timed)
    (List.length (traced m))

(* Seed-determined order of a workload's units (Fisher-Yates). *)
let permute ~seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* {1 Spans}

   The traced run records a span at each boundary the benchmark can see
   (block, then session or decode/replay, then setup and campaign from
   event timestamps), keeps them in memory, and writes them out when the
   run ends.  Times are seconds since the run started. *)

type span = { id : int; parent : int; name : string; s_start : float; s_end : float }

let run_t0 = Obs.Clock.now ()
let spans = ref []
let next_span = ref 0

let span ?(parent = 0) name start stop =
  incr next_span;
  spans :=
    { id = !next_span; parent; name; s_start = start -. run_t0; s_end = stop -. run_t0 } :: !spans;
  !next_span

let write_spans ~path ~workload ~seed =
  let sp s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("parent", J.Int s.parent);
        ("name", J.String s.name);
        ("start", J.Float s.s_start);
        ("end", J.Float s.s_end);
      ]
  in
  let doc =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("time_unit", J.String "s");
        ("spans", J.List (List.rev_map sp !spans));
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~minify:true doc);
  output_char oc '\n';
  close_out oc

(* {1 Fuzzing sessions} *)

type fuzz_spec = {
  target : Pmrace.Target.t;
  campaigns : int;
  crash_images : int;
  por : bool;
}

(* The CLI defaults: persistent engine iff the target's init is
   expensive, validation and the static pre-pass on, one worker. *)
let config spec ~seed =
  Fuzzer.Config.make ~max_campaigns:spec.campaigns ~master_seed:seed ~workers:1
    ~use_checkpoint:spec.target.Pmrace.Target.expensive_init ~validate:true ~static_prepass:true
    ~crash_images:spec.crash_images ~por:spec.por ()

(* A session's outcome.  Blocks keep summaries only: retaining whole
   sessions would grow the live heap, and with it every later block's
   major-GC work. *)
type fuzz_out = {
  campaigns_run : int;
  por : Pmrace.Hub.por_totals option;
  created : float;  (** [Obs.Clock] when the event sink was created *)
  call : float * float;  (** [Obs.Clock] around [Fuzzer.run] *)
  enter : float;  (** event times are seconds since [created] *)
  starts : float array;  (** by campaign index *)
  ends : float array;
  last_bug : float;  (** seconds from entering [Fuzzer.run] *)
  found : int;  (** known bugs found *)
  known : int;
  fingerprint : string;
  improved : int;
  verdicts : int;
  bug_verdicts : int;
  setup_readings : Obs.Metrics.reading list;  (** at the first campaign start, traced only *)
}

let kind_string = function `Inter -> "inter" | `Intra -> "intra" | `Sync -> "sync"

(* One session through the public front door, with an event sink that
   timestamps campaign boundaries (and counts verdicts).  [on_session]
   sees the finished session. *)
let fuzz_session ?(on_session = ignore) spec ~seed ~traced =
  let n = spec.campaigns in
  let starts = Array.make n nan and ends = Array.make n nan in
  let enter = ref nan and improved = ref 0 and verdicts = ref 0 and bug_verdicts = ref 0 in
  let setup_readings = ref [] in
  let created = Obs.Clock.now () in
  let obs = Events.create () in
  Events.attach obs (fun ev ->
      match ev.Events.ev_payload with
      | Events.Session_start _ -> enter := ev.ev_time
      | Events.Campaign_start { campaign; _ } ->
          if campaign = 0 && traced then setup_readings := Obs.Metrics.snapshot ();
          starts.(campaign) <- ev.ev_time
      | Events.Campaign_end { campaign; improved = i; _ } ->
          ends.(campaign) <- ev.ev_time;
          if i then incr improved
      | Events.Validation_verdict { verdict; _ } ->
          incr verdicts;
          if String.starts_with ~prefix:"bug" verdict then incr bug_verdicts
      | _ -> ());
  let t0 = Obs.Clock.now () in
  let s = Fuzzer.run ~obs spec.target (config spec ~seed) in
  let t1 = Obs.Clock.now () in
  on_session s;
  let known = Fuzzer.found_known_bugs s spec.target in
  let groups = Report.bug_groups s.report in
  (* The campaign that first found the session's last bug group; with no
     group at all, the session's last campaign. *)
  let last_campaign =
    List.fold_left
      (fun acc g -> max acc (Option.value ~default:0 (Artifact.first_campaign s.report g)))
      (-1) groups
  in
  let last_campaign = if last_campaign < 0 then s.campaigns_run - 1 else last_campaign in
  let found_ids =
    List.filter_map
      (fun ((kb : Pmrace.Target.known_bug), f) -> if f then Some (string_of_int kb.kb_id) else None)
      known
  in
  let group_ids =
    List.sort String.compare
      (List.map (fun (g : Report.bug_group) -> kind_string g.bg_kind ^ ":" ^ g.bg_site) groups)
  in
  {
    campaigns_run = s.campaigns_run;
    por = s.por;
    created;
    call = (t0, t1);
    enter = !enter;
    starts;
    ends;
    last_bug = ends.(last_campaign) -. !enter;
    found = List.length found_ids;
    known = List.length known;
    fingerprint =
      Printf.sprintf "found=[%s] campaigns=%d groups=[%s]" (String.concat "," found_ids)
        s.campaigns_run (String.concat "," group_ids);
    improved = !improved;
    verdicts = !verdicts;
    bug_verdicts = !bug_verdicts;
    setup_readings = !setup_readings;
  }

let setup_of o = o.starts.(0) -. o.enter
let latencies o = Array.mapi (fun i s -> o.ends.(i) -. s) o.starts

let fuzz_spans b =
  let o = b.out in
  let block = span "block" b.start (b.start +. b.wall) in
  let t0, t1 = o.call in
  let session = span ~parent:block "fuzz_session" t0 t1 in
  let at t = o.created +. t in
  ignore (span ~parent:session "setup" (at o.enter) (at o.starts.(0)));
  Array.iteri (fun i s -> ignore (span ~parent:session "campaign" (at s) (at o.ends.(i)))) o.starts

(* {1 Triage passes} *)

type triage_out = {
  decode : float;  (** seconds to parse the JSON and run [Artifact.of_json] *)
  replay : float array;  (** seconds, by bug group index *)
  replay_at : float array;  (** [Obs.Clock] at each replay's start *)
  reproduced : bool array;
  errors : int;
  t_fingerprint : string;
}

let decode_artifact text =
  match J.of_string text with
  | Error e -> failwith ("artifact JSON: " ^ e)
  | Ok j -> ( match Artifact.of_json j with Error e -> failwith ("artifact: " ^ e) | Ok a -> a)

(* Decode the artifact, then replay every bug group in index order. *)
let triage_pass (target : Pmrace.Target.t) ~text ~groups ~traced:_ =
  let t0 = Obs.Clock.now () in
  let artifact = decode_artifact text in
  let decode = Obs.Clock.elapsed t0 in
  let replay = Array.make groups 0. and replay_at = Array.make groups 0. in
  let reproduced = Array.make groups false and verdict = Array.make groups "" and errors = ref 0 in
  for bug = 0 to groups - 1 do
    let r0 = Obs.Clock.now () in
    let r = Replay.replay_bug ~target ~artifact ~bug in
    replay_at.(bug) <- r0;
    replay.(bug) <- Obs.Clock.elapsed r0;
    verdict.(bug) <-
      (match r with
      | Ok { Replay.r_reproduced = true; r_image_index; _ } ->
          reproduced.(bug) <- true;
          "R" ^ Option.fold ~none:"" ~some:(fun i -> "@" ^ string_of_int i) r_image_index
      | Ok _ -> "N"
      | Error e ->
          incr errors;
          "E(" ^ e ^ ")")
  done;
  {
    decode;
    replay;
    replay_at;
    reproduced;
    errors = !errors;
    t_fingerprint = String.concat "," (Array.to_list verdict);
  }

(* Seconds a user replaying bugs 0, 1, ... waits until the last
   reproducing group is confirmed: decode plus the replays up to it. *)
let triage_last_bug o =
  let last = ref (-1) in
  Array.iteri (fun i r -> if r then last := i) o.reproduced;
  o.decode +. sum_floats (Array.sub o.replay 0 (!last + 1))

let triage_spans b =
  let o = b.out in
  let block = span "block" b.start (b.start +. b.wall) in
  ignore (span ~parent:block "artifact_decode" b.start (b.start +. o.decode));
  Array.iteri
    (fun i at -> ignore (span ~parent:block (Printf.sprintf "replay#%d" i) at (at +. o.replay.(i))))
    o.replay_at

(* {1 End-to-end metrics} *)

(* One unit's untraced samples. *)
type samples = {
  s_ops : int;  (** operations (campaigns or replays) per block *)
  s_bugs : int;  (** known bugs found (or groups reproduced) per block *)
  s_cpu : float array;  (** per block *)
  s_setup : float array;
  s_last_bug : float array;
  s_lat : float array array;  (** per block, per operation *)
}

(* The end-to-end metrics, in BENCHMARK.json order, after the spread
   report.  An "exec" is a campaign on the fuzz workloads and one bug
   group's replay on memcached-triage.  Times sum (or pool) the units'
   fastest blocks, so every unit weighs by its work, and are scaled to a
   host of reference speed by the run's [calib]ration kernel times. *)
let end_to_end ppf ~heap_mb ~calib (units : (string * samples) list) =
  Format.fprintf ppf "spread over blocks (min, p25, p75 of each block's value):@.";
  Stats.pp_spread ppf ("calibration_kernel", "ms", Array.map (( *. ) ms) calib);
  List.iter
    (fun (label, s) ->
      let per_block q = Array.map (fun l -> ms *. Stats.quantile l q) s.s_lat in
      List.iter
        (fun (metric, unit, xs) -> Stats.pp_spread ppf (metric ^ " " ^ label, unit, xs))
        [
          ("block_cpu_s", "s", s.s_cpu);
          ("exec_ms_p50", "ms", per_block 0.5);
          ("exec_ms_p95", "ms", per_block 0.95);
          ("last_bug_s", "s", s.s_last_bug);
          ("setup_s", "s", s.s_setup);
        ])
    units;
  let total f = List.fold_left (fun acc (_, s) -> acc +. f s) 0. units in
  let mean_fastest f = total (fun s -> Stats.fastest (f s)) /. float_of_int (List.length units) in
  let cpu = total (fun s -> Stats.fastest s.s_cpu) in
  let lat = Array.concat (List.map (fun (_, s) -> Stats.paired s.s_lat) units) in
  let ops = total (fun s -> float_of_int s.s_ops) in
  (* How much slower than the reference the host ran.  A kernel run is
     40 times shorter than a block, so its fastest runs catch fleeting
     fast moments no block sees; its lower quartile tracked the blocks'
     fastest better. *)
  let slow = Stats.quantile calib 0.25 /. Calib.reference_s in
  Format.fprintf ppf "host speed: %.3fx the reference's; unscaled, %.2f execs per cpu-s@." (1. /. slow)
    (ops /. cpu);
  let cpu = cpu /. slow in
  [
    ("execs_per_cpu_s", "1/s", ops /. cpu);
    ("bugs_per_cpu_s", "1/s", total (fun s -> float_of_int s.s_bugs) /. cpu);
    ("exec_ms_p50", "ms", ms *. Stats.quantile lat 0.5 /. slow);
    ("exec_ms_p95", "ms", ms *. Stats.quantile lat 0.95 /. slow);
    ("last_bug_s", "s", mean_fastest (fun s -> s.s_last_bug) /. slow);
    (* Every block sets up again, so work moved into set-up shows. *)
    ("setup_s", "s", mean_fastest (fun s -> s.s_setup) /. slow);
    ("peak_heap_mb", "MB", heap_mb);
  ]

(* Executions per CPU-second over [bs], unit by unit as above. *)
let execs_per_cpu m ~ops bs =
  let per_unit = by_unit m bs in
  let cpu =
    Array.fold_left
      (fun acc ub -> if ub = [] then acc else acc +. Stats.fastest (floats (fun b -> b.cpu) ub))
      0. per_unit
  in
  float_of_int (ops * Array.length per_unit) /. cpu

(* {1 Per-layer metrics} *)

let metric layer name unit value = { Layers.layer; name; unit; value }

(* The layers one campaign (or replay) passes through, from a [Layers.t]
   holding only the campaign phase.  [ops] operations ran in [blocks]
   blocks; [campaign_s] is their summed span time and [block_s] the
   summed block time. *)
let campaign_layers a ~ops ~blocks ~campaign_s ~block_s =
  let opsf = float_of_int ops and blocksf = float_of_int blocks in
  let steps = Layers.sum a "sched_steps_total" in
  let run_s = Layers.sum a "campaign_run_seconds" in
  let enumerated = Layers.sum a "crash_images_enumerated_total"
  and recovered = Layers.sum a "crash_images_validated_total" in
  let validation = Layers.sum a "validation_seconds" in
  let pf = "Post_failure+Crash_images" in
  [
    metric "sched" "sched.steps_per_campaign" "count" (steps /. opsf);
    (* Campaign run time per step: a step includes the fiber's own work
       (runtime hooks, pool model) up to its next preemption point. *)
    metric "sched" "sched.step_ns" "ns" (1e9 *. Layers.ratio run_s steps);
    metric "runtime+pmem+pmdk" "exec.run_us" "us" (us *. Layers.mean a "campaign_run_seconds");
    metric "pmrace.Engine" "engine.checkout_us" "us" (us *. Layers.mean a "campaign_setup_seconds");
    metric "pmrace.Engine" "engine.checkout_share" "%"
      (100. *. Layers.ratio (Layers.sum a "campaign_setup_seconds") campaign_s);
    metric "pmrace.Engine" "engine.reset_touched_words" "words"
      (Layers.mean a "engine_reset_touched_words");
    metric pf "validate.count" "count" (Layers.sum a "validations_total" /. blocksf);
    metric pf "validate.ms" "ms" (ms *. validation /. blocksf);
    metric pf "validate.block_share" "%" (100. *. validation /. block_s);
    metric pf "validate.images_recovered" "count" (recovered /. blocksf);
    metric pf "validate.image_skip_ratio" "ratio" (Layers.ratio (enumerated -. recovered) enumerated);
    metric pf "validate.recovery_us" "us" (us *. Layers.ratio validation recovered);
  ]

(* Split traced fuzz blocks into the set-up phase (up to the first
   campaign start) and the campaign phase. *)
let phases (bs : fuzz_out block list) =
  let setup = Layers.create () and phase = Layers.create () in
  List.iter
    (fun b ->
      Layers.add setup b.out.setup_readings;
      Layers.add phase b.readings;
      Layers.add ~sign:(-1) phase b.out.setup_readings)
    bs;
  (setup, phase)

let fuzz_totals (bs : fuzz_out block list) f = List.fold_left (fun acc b -> acc +. f b) 0. bs

(* Time in [Fuzzer.run] not attributed to set-up or to a campaign-phase
   layer, per campaign. *)
let fuzz_residual_us bs phase ~ops =
  let run_s = fuzz_totals bs (fun b -> snd b.out.call -. fst b.out.call) in
  let setup_s = fuzz_totals bs (fun b -> setup_of b.out) in
  let attributed =
    List.fold_left
      (fun acc k -> acc +. Layers.sum phase k)
      0.
      [ "campaign_setup_seconds"; "campaign_run_seconds"; "hub_merge_seconds"; "validation_seconds" ]
  in
  us *. (run_s -. setup_s -. attributed) /. float_of_int ops

(* The fuzzing-session layers (hub, POR, pre-pass, fuzzer bookkeeping)
   over traced fuzz blocks; [residual_us] is the fuzzer's residual. *)
let session_layers (bs : fuzz_out block list) ~residual_us =
  let setup, phase = phases bs in
  let nf = float_of_int (List.length bs) in
  let sumi f = fuzz_totals bs (fun b -> float_of_int (f b.out)) in
  let campaigns = sumi (fun o -> o.campaigns_run) in
  let por f = sumi (fun o -> match o.por with Some p -> f p | None -> 0) in
  [
    metric "pmrace.Hub" "hub.commit_us" "us" (us *. Layers.mean phase "hub_merge_seconds");
    metric "pmrace.Hub" "hub.lock_wait_us" "us" (us *. Layers.mean phase "hub_lock_wait_seconds");
    metric "pmrace.Por" "por.pruned_per_step" "ratio"
      (Layers.ratio (por (fun p -> p.Pmrace.Hub.pt_pruned)) (Layers.sum phase "sched_steps_total"));
    metric "pmrace.Por" "por.dup_trace_ratio" "ratio"
      (Layers.ratio (por (fun p -> p.Pmrace.Hub.pt_dup_traces)) (por (fun p -> p.pt_campaigns)));
    metric "Post_failure+Crash_images" "validate.bug_ratio" "ratio"
      (Layers.ratio (sumi (fun o -> o.bug_verdicts)) (sumi (fun o -> o.verdicts)));
    metric "pmrace.Analyze+analysis" "prepass.ms" "ms"
      (ms *. Layers.sum setup "analyze_duration_seconds" /. nf);
    metric "pmrace.Analyze+analysis" "prepass.executions" "count"
      (Layers.sum setup "analyze_executions_total" /. nf);
    metric "pmrace.Fuzzer" "fuzzer.residual_us" "us" residual_us;
    metric "pmrace.Fuzzer" "fuzzer.improved_ratio" "ratio" (Layers.ratio (sumi (fun o -> o.improved)) campaigns);
  ]

let replay_metrics ~exec_s ~validate_s ~groups ~decode_s ~bytes =
  let per_group x = Layers.ratio x (float_of_int groups) in
  [
    metric "pmrace.Replay" "replay.exec_ms" "ms" (ms *. per_group exec_s);
    metric "pmrace.Replay" "replay.validate_ms" "ms" (ms *. per_group validate_s);
    metric "pmrace.Artifact+obs.Json" "artifact.decode_ms" "ms" (ms *. decode_s);
    metric "pmrace.Artifact+obs.Json" "artifact.bytes" "bytes" (float_of_int bytes);
  ]

(* Decode one artifact and replay every bug group, with metrics on. *)
let replay_layers target text =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let t0 = Obs.Clock.now () in
  let artifact = decode_artifact text in
  let decode_s = Obs.Clock.elapsed t0 in
  let groups = List.length artifact.Artifact.a_bugs in
  for bug = 0 to groups - 1 do
    ignore (Replay.replay_bug ~target ~artifact ~bug)
  done;
  let a = Layers.create () in
  Layers.add a (Obs.Metrics.snapshot ());
  Obs.Metrics.set_enabled false;
  replay_metrics ~exec_s:(Layers.sum a "campaign_latency_seconds")
    ~validate_s:(Layers.sum a "validation_seconds") ~groups ~decode_s ~bytes:(String.length text)

let gc_metrics m ~ops =
  let bs = untraced m in
  [
    metric "OCaml GC" "gc.minor_words_per_campaign" "words"
      (Stats.median (floats (fun b -> b.minor_words) bs) /. float_of_int ops);
    metric "OCaml GC" "gc.major_collections" "count"
      (Stats.median (floats (fun b -> float_of_int b.major_collections) bs));
  ]

(* Traced minus untraced throughput, as a per-layer metric. *)
let overhead ppf m ~ops =
  let off = execs_per_cpu m ~ops (untraced m) and on = execs_per_cpu m ~ops (traced m) in
  Format.fprintf ppf "tracing overhead: %.2f execs/cpu-s untraced, %.2f traced (%.2f%% slower)@."
    off on
    (100. *. (off -. on) /. off);
  metric "benchmark" "trace.overhead_per_cpu_s" "1/s" (off -. on)

let pp_layers ppf ~name ~residual layers =
  Format.fprintf ppf "@.per-layer (%s, traced blocks):@." name;
  Layers.pp_table ppf layers;
  Format.fprintf ppf "residual: %.2f us per exec not attributed to any layer@." residual

(* {1 Workloads} *)

type outcome = {
  e2e : (string * string * float) list;
  layers : Layers.metric list;
  attempted : int;
  failed : int;
  correct : bool;
}

let artifact_text spec ~seed (s : Fuzzer.session) =
  J.to_string (Artifact.to_json (Artifact.of_session ~target:spec.target ~cfg:(config spec ~seed) s))

(* An untimed session's artifact, as [pmrace fuzz --json-out] writes it. *)
let record spec ~seed = artifact_text spec ~seed (Fuzzer.run spec.target (config spec ~seed))

(* A fuzz workload: one session per master seed in [seeds], each of
   which must find every known bug of the target. *)
let fuzz_workload ppf ~name ~order_seed ~seconds ~trace ~seeds spec =
  let units =
    Array.of_list
      (List.map
         (fun seed ->
           {
             label = Printf.sprintf "seed %d" seed;
             run = fuzz_session spec ~seed;
             fingerprint = (fun o -> o.fingerprint);
           })
         seeds)
  in
  let order = permute ~seed:order_seed (List.init (Array.length units) Fun.id) in
  let m = measure ~seconds ~trace ~order units in
  pp_measured ppf ~name m;
  let per_unit = by_unit m (untraced m) in
  let firsts = Array.map (fun bs -> (List.hd bs).out) per_unit in
  let missed = ref 0 and known = ref 0 in
  Array.iteri
    (fun i o ->
      missed := !missed + o.known - o.found;
      known := !known + o.known;
      Format.fprintf ppf "  %s: %s@." units.(i).label o.fingerprint)
    firsts;
  Format.fprintf ppf "failed_ratio: %d/%d known bugs missed@." !missed !known;
  if !missed > 0 then Format.eprintf "output check failed: %s missed %d known bugs@." name !missed;
  let e2e =
    end_to_end ppf ~heap_mb:m.warm_heap_mb ~calib:m.calib
      (Array.to_list
         (Array.mapi
            (fun i bs ->
              ( units.(i).label,
                {
                  s_ops = spec.campaigns;
                  s_bugs = firsts.(i).found;
                  s_cpu = floats (fun b -> b.cpu) bs;
                  s_setup = floats (fun b -> setup_of b.out) bs;
                  s_last_bug = floats (fun b -> b.out.last_bug) bs;
                  s_lat = floats (fun b -> latencies b.out) bs;
                } ))
            per_unit))
  in
  let layers =
    if not trace then []
    else begin
      let tb = traced m in
      List.iter fuzz_spans tb;
      let ops = List.length tb * spec.campaigns in
      let _, phase = phases tb in
      let campaign_s = fuzz_totals tb (fun b -> sum_floats (latencies b.out)) in
      let block_s = fuzz_totals tb (fun b -> b.wall) in
      let residual_us = fuzz_residual_us tb phase ~ops in
      let seed0 = List.hd seeds in
      let layers =
        campaign_layers phase ~ops ~blocks:(List.length tb) ~campaign_s ~block_s
        @ session_layers tb ~residual_us
        @ replay_layers spec.target (record spec ~seed:seed0)
        @ gc_metrics m ~ops:spec.campaigns
        @ [ overhead ppf m ~ops:spec.campaigns ]
      in
      pp_layers ppf ~name ~residual:residual_us layers;
      layers
    end
  in
  let nblocks = List.length m.timed in
  {
    e2e;
    layers;
    attempted = nblocks * spec.campaigns;
    failed = min nblocks m.mismatched * spec.campaigns;
    correct = m.mismatched = 0 && !missed = 0;
  }

(* Sessions at the first master seeds from the CLI default (5) on which
   a session finds every known bug: two p-clht sessions (about 1 s each),
   three shorter torn-planted ones. *)
let pclht_fuzz = { target = Workloads.Pclht.target; campaigns = 300; crash_images = 1; por = false }
let pclht_seeds = [ 5; 6 ]
let torn_por = { target = Workloads.Tornstore.target; campaigns = 1000; crash_images = 4; por = true }
let torn_seeds = [ 5; 6; 7 ]

(* The triage workload replays an artifact recorded at the CLI's default
   master seed; 14 of its 17 bug groups reproduce today. *)
let memcached_record =
  { target = Workloads.Memcached.target; campaigns = 300; crash_images = 16; por = false }

let record_seed = 5
let expected_groups = 17
let expected_reproduced = 14

let triage_workload ppf ~seconds ~trace =
  let spec = memcached_record in
  (* One untimed recording session.  A traced run keeps its readings for
     the fuzzing-session layers, then zeroes the registry, so the
     artifact's metrics snapshot reads as in an untraced run. *)
  let text = ref "" and groups = ref 0 and readings = ref [] in
  let on_session s =
    readings := Obs.Metrics.snapshot ();
    Obs.Metrics.reset ();
    text := artifact_text spec ~seed:record_seed s;
    groups := List.length (Report.bug_groups s.Fuzzer.report)
  in
  let recording =
    run_block ~unit_ix:0 ~traced:trace
      {
        label = "recording";
        run = fuzz_session ~on_session spec ~seed:record_seed;
        fingerprint = (fun o -> o.fingerprint);
      }
  in
  let recording = { recording with readings = !readings } in
  let text = !text and groups = !groups in
  Format.fprintf ppf "memcached-triage: recorded %d campaigns at seed %d, %d bug groups, %d bytes of JSON@."
    recording.out.campaigns_run record_seed groups (String.length text);
  let unit =
    {
      label = "replays in index order";
      run = triage_pass spec.target ~text ~groups;
      fingerprint = (fun o -> o.t_fingerprint);
    }
  in
  let m = measure ~seconds ~trace ~order:[| 0 |] [| unit |] in
  pp_measured ppf ~name:"memcached-triage" m;
  let ub = untraced m in
  let first = (List.hd m.timed).out in
  let reproduced = Array.fold_left (fun n r -> if r then n + 1 else n) 0 first.reproduced in
  Format.fprintf ppf "  %s@." first.t_fingerprint;
  Format.fprintf ppf "failed_ratio: %d/%d groups not reproduced (%d errors)@." (groups - reproduced)
    groups first.errors;
  let expected = groups = expected_groups && reproduced = expected_reproduced in
  if not expected then
    Format.eprintf "output check failed: %d/%d groups reproduced, expected %d/%d@." reproduced groups
      expected_reproduced expected_groups;
  let e2e =
    end_to_end ppf ~heap_mb:m.warm_heap_mb ~calib:m.calib
      [
        ( "triage",
          {
            s_ops = groups;
            s_bugs = reproduced;
            s_cpu = floats (fun b -> b.cpu) ub;
            s_setup = floats (fun b -> b.out.decode) ub;
            s_last_bug = floats (fun b -> triage_last_bug b.out) ub;
            s_lat = floats (fun b -> b.out.replay) ub;
          } );
      ]
  in
  let layers =
    if not trace then []
    else begin
      let tb = traced m in
      List.iter triage_spans tb;
      let ops = List.length tb * groups in
      let a = Layers.create () in
      List.iter (fun b -> Layers.add a b.readings) tb;
      let total f = List.fold_left (fun acc b -> acc +. f b) 0. tb in
      let replay_s = total (fun b -> sum_floats b.out.replay) in
      let block_s = total (fun b -> b.wall) in
      let attributed =
        List.fold_left
          (fun acc k -> acc +. Layers.sum a k)
          0.
          [ "campaign_setup_seconds"; "campaign_run_seconds"; "validation_seconds" ]
      in
      let residual_us =
        us *. (block_s -. total (fun b -> b.out.decode) -. attributed) /. float_of_int ops
      in
      (* Hub, POR, pre-pass and fuzzer bookkeeping run only in the
         recording session; the residual is the replay blocks'. *)
      let layers =
        campaign_layers a ~ops ~blocks:(List.length tb) ~campaign_s:replay_s ~block_s
        @ session_layers [ recording ] ~residual_us
        @ replay_metrics ~exec_s:(Layers.sum a "campaign_latency_seconds" /. float_of_int (List.length tb))
            ~validate_s:(Layers.sum a "validation_seconds" /. float_of_int (List.length tb))
            ~groups
            ~decode_s:(Stats.fastest (floats (fun b -> b.out.decode) tb))
            ~bytes:(String.length text)
        @ gc_metrics m ~ops:groups
        @ [ overhead ppf m ~ops:groups ]
      in
      pp_layers ppf ~name:"memcached-triage" ~residual:residual_us layers;
      layers
    end
  in
  let nblocks = List.length m.timed in
  {
    e2e;
    layers;
    attempted = nblocks * groups;
    failed =
      (min nblocks m.mismatched * groups)
      + List.fold_left (fun acc b -> acc + b.out.errors) 0 m.timed;
    correct = m.mismatched = 0 && expected;
  }

let workloads = [ "pclht-fuzz"; "torn-por"; "memcached-triage" ]

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref false in
  let out_dir = ref "." in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  workload seed: the order of the work");
      ("--seconds", Arg.Int (fun n -> seconds := Some (float_of_int n)), "S  seconds of timed blocks");
      ( "--trace",
        Arg.Int (fun n -> trace := n <> 0),
        "0|1  alternate traced passes and report per-layer metrics" );
      ("--out-dir", Arg.Set_string out_dir, "DIR  where a traced run writes its spans (default .)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!seed, !seconds) with
  | Some order_seed, Some seconds when List.mem !workload workloads ->
      let ppf = Format.std_formatter in
      let trace = !trace in
      let o =
        match !workload with
        | "pclht-fuzz" ->
            fuzz_workload ppf ~name:"pclht-fuzz" ~order_seed ~seconds ~trace ~seeds:pclht_seeds
              pclht_fuzz
        | "torn-por" ->
            fuzz_workload ppf ~name:"torn-por" ~order_seed ~seconds ~trace ~seeds:torn_seeds torn_por
        | _ -> triage_workload ppf ~seconds ~trace
      in
      if trace then begin
        let path =
          Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload order_seed)
        in
        write_spans ~path ~workload:!workload ~seed:order_seed;
        Format.fprintf ppf "spans: %d written to %s@." (List.length !spans) path
      end;
      let metric (name, unit, value) =
        (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ])
      in
      let metrics =
        if trace then List.map (fun m -> metric (m.Layers.name, m.unit, m.value)) o.layers
        else List.map metric o.e2e
      in
      Format.pp_print_flush ppf ();
      print_endline
        (J.to_string ~minify:true
           (J.Obj
              [
                ("correct", J.Bool o.correct);
                ("attempted", J.Int o.attempted);
                ("failed", J.Int o.failed);
                ("metrics", J.Obj metrics);
              ]))
  | _ ->
      prerr_endline usage;
      exit 2
