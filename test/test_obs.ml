(* The observability layer: JSON codec, metrics registry, event sinks,
   session artifacts, and provenance replay.

   IMPORTANT: no toplevel [Instr.site] registrations here — the golden
   alias-bitmap counts in test_parallel depend on the executable's site-id
   layout, and toplevel registrations in any linked test module would
   shift them.  All fuzzing in this module happens inside test bodies,
   after the registry is already populated by earlier suites. *)

module J = Obs.Json
module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report

(* --- JSON ------------------------------------------------------------- *)

let roundtrip j =
  match J.of_string (J.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "JSON did not parse back: %s" e

let test_json_roundtrip () =
  let j =
    J.Obj
      [
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("ints", J.List [ J.Int 0; J.Int (-42); J.Int max_int ]);
        ("floats", J.List [ J.Float 1.5; J.Float (-0.125); J.Float 1e300 ]);
        ("str", J.String "plain");
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "pretty round-trips" true (roundtrip j = j);
  (match J.of_string (J.to_string ~minify:true j) with
  | Ok j' -> Alcotest.(check bool) "minified round-trips" true (j' = j)
  | Error e -> Alcotest.failf "minified form did not parse: %s" e);
  (* Integral floats decode as Int; that is the documented normalisation. *)
  Alcotest.(check bool) "2.0 decodes integral" true (J.of_string "2.0" = Ok (J.Int 2))

let test_json_escapes () =
  let s = "quote\" backslash\\ newline\n tab\t control\x01 unicode\xc3\xa9" in
  match roundtrip (J.String s) with
  | J.String s' -> Alcotest.(check string) "escaped string round-trips" s s'
  | _ -> Alcotest.fail "expected a string"

let test_json_unicode_escape () =
  (* \u sequences, including a surrogate pair, decode to UTF-8. *)
  match J.of_string {|"é😀"|} with
  | Ok (J.String s) -> Alcotest.(check string) "utf-8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_bad_unicode_escapes () =
  let bad s = match J.of_string s with Ok _ -> Alcotest.failf "%S parsed" s | Error _ -> () in
  bad {|"\uZZZZ"|};
  bad {|"\u12G4"|};
  bad {|"\u1_23"|};
  bad {|"\u+123"|};
  bad {|"\u12"|};
  (* A high surrogate combines only with a low one that follows. *)
  (match J.of_string {|"\ud800\u0041"|} with
  | Ok (J.String s) -> Alcotest.(check string) "lone high surrogate, then A" "\xed\xa0\x80A" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse error: %s" e);
  match J.of_string {|"\uD83D\uDE00"|} with
  | Ok (J.String s) -> Alcotest.(check string) "upper-case pair" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_errors () =
  let bad s = match J.of_string s with Ok _ -> Alcotest.failf "%S parsed" s | Error _ -> () in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let test_json_accessors () =
  let j = J.Obj [ ("n", J.Int 3); ("f", J.Float 2.5); ("s", J.String "x") ] in
  Alcotest.(check (option int)) "member+to_int" (Some 3) (Option.bind (J.member "n" j) J.to_int);
  Alcotest.(check (option int)) "missing member" None (Option.bind (J.member "zz" j) J.to_int);
  Alcotest.(check (option int)) "to_int rejects fractional" None (J.to_int (J.Float 2.5));
  Alcotest.(check bool) "to_float accepts int" true (J.to_float (J.Int 2) = Some 2.);
  (* Numbers outside the int range are not ints (int_of_float would wrap). *)
  List.iter
    (fun text ->
      match J.of_string text with
      | Ok j -> Alcotest.(check (option int)) (text ^ " is not an int") None (J.to_int j)
      | Error e -> Alcotest.failf "%s: %s" text e)
    [ "1e300"; "-1e300"; "9223372036854775808"; "4611686018427387904" ];
  Alcotest.(check bool) "max_int literal" true (J.of_string "4611686018427387903" = Ok (J.Int max_int));
  Alcotest.(check (option int)) "min_int as float" (Some min_int) (J.to_int (J.Float (Float.of_int min_int)))

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_disabled_noop () =
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test_disabled_counter" in
  let h = Obs.Metrics.histogram "test_disabled_histogram" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:10 c;
  Obs.Metrics.observe h 0.5;
  let r =
    List.find
      (fun (r : Obs.Metrics.reading) -> String.equal r.r_name "test_disabled_counter")
      (Obs.Metrics.snapshot ())
  in
  (match r.r_value with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "disabled counter never moves" 0 n
  | _ -> Alcotest.fail "expected a counter")

let test_metrics_enabled () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test_enabled_counter" in
  let g = Obs.Metrics.gauge "test_enabled_gauge" in
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test_enabled_histogram" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Obs.Metrics.set g 2.5;
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 5.0 ];
  let find name =
    (List.find
       (fun (r : Obs.Metrics.reading) -> String.equal r.r_name name)
       (Obs.Metrics.snapshot ()))
      .r_value
  in
  (match find "test_enabled_counter" with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "counter" 5 n
  | _ -> Alcotest.fail "expected counter");
  (match find "test_enabled_gauge" with
  | Obs.Metrics.Gauge v -> Alcotest.(check (float 1e-9)) "gauge" 2.5 v
  | _ -> Alcotest.fail "expected gauge");
  (match find "test_enabled_histogram" with
  | Obs.Metrics.Histogram { buckets; count; sum } ->
      Alcotest.(check int) "histogram count" 3 count;
      Alcotest.(check (float 1e-9)) "histogram sum" 7.0 sum;
      Alcotest.(check (list int)) "bucket cells" [ 1; 1; 1 ] (List.map snd buckets)
  | _ -> Alcotest.fail "expected histogram");
  (* Re-registration returns the same handle; a kind clash is an error. *)
  Obs.Metrics.incr (Obs.Metrics.counter "test_enabled_counter");
  (match find "test_enabled_counter" with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "same handle" 6 n
  | _ -> Alcotest.fail "expected counter");
  (match Obs.Metrics.gauge "test_enabled_counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  Obs.Metrics.set_enabled false

let test_metrics_domain_stress () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test_stress_counter" in
  let h = Obs.Metrics.histogram ~buckets:[| 0.5 |] "test_stress_histogram" in
  let per_domain = 10_000 in
  let body () =
    for _ = 1 to per_domain do
      Obs.Metrics.incr c;
      Obs.Metrics.observe h 1.0
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn body) in
  Array.iter Domain.join domains;
  let find name =
    (List.find
       (fun (r : Obs.Metrics.reading) -> String.equal r.r_name name)
       (Obs.Metrics.snapshot ()))
      .r_value
  in
  (match find "test_stress_counter" with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "no lost increments" (4 * per_domain) n
  | _ -> Alcotest.fail "expected counter");
  (match find "test_stress_histogram" with
  | Obs.Metrics.Histogram { count; sum; _ } ->
      Alcotest.(check int) "no lost observations" (4 * per_domain) count;
      Alcotest.(check (float 1e-6)) "atomic float sum" (float_of_int (4 * per_domain)) sum
  | _ -> Alcotest.fail "expected histogram");
  Obs.Metrics.set_enabled false

(* --- Events ------------------------------------------------------------ *)

let test_events_jsonl () =
  let path = Filename.temp_file "pmrace_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Obs.Events.create () in
      let oc = open_out path in
      Obs.Events.attach_jsonl t oc;
      Obs.Events.emit t
        (Obs.Events.Session_start { target = "figure1"; workers = 1; max_campaigns = 2; master_seed = 3 });
      Obs.Events.emit t
        (Obs.Events.New_alias_pair
           { campaign = 0; worker = 0; write_site = "a.c:1"; read_site = "b.c:2" });
      Obs.Events.emit t (Obs.Events.Session_end { campaigns = 2; wall = 0.5; bugs = 1 });
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event" 3 (List.length lines);
      List.iter
        (fun line ->
          match J.of_string line with
          | Ok (J.Obj fields) ->
              Alcotest.(check bool) "has event field" true (List.mem_assoc "event" fields);
              Alcotest.(check bool) "has time field" true (List.mem_assoc "t" fields)
          | Ok _ -> Alcotest.fail "line is not an object"
          | Error e -> Alcotest.failf "line is not valid JSON: %s" e)
        lines)

(* --- Session artifacts -------------------------------------------------- *)

let fig1_cfg = lazy (Fuzzer.Config.make ~max_campaigns:40 ~master_seed:3 ())
let fig1_session = lazy (Fuzzer.run Workloads.Figure1.target (Lazy.force fig1_cfg))

let fig1_artifact =
  lazy
    (Pmrace.Artifact.of_session ~target:Workloads.Figure1.target ~cfg:(Lazy.force fig1_cfg)
       (Lazy.force fig1_session))

let test_artifact_roundtrip () =
  let a = Lazy.force fig1_artifact in
  let path = Filename.temp_file "pmrace_session" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pmrace.Artifact.write ~path a;
      match Pmrace.Artifact.read ~path with
      | Error e -> Alcotest.failf "artifact did not read back: %s" e
      | Ok a' ->
          Alcotest.(check string) "target" a.a_target a'.a_target;
          Alcotest.(check (list (pair string string)))
            "bug fingerprints survive the round trip"
            (Pmrace.Artifact.bug_fingerprints a)
            (Pmrace.Artifact.bug_fingerprints a');
          Alcotest.(check (list (pair string string)))
            "known figure1 fingerprints"
            [ ("inter", "figure1.c:store_x"); ("sync", "figure1.c:g") ]
            (Pmrace.Artifact.bug_fingerprints a');
          Alcotest.(check int) "campaigns" a.a_campaigns a'.a_campaigns;
          Alcotest.(check int) "alias bits" a.a_alias_bits a'.a_alias_bits;
          Alcotest.(check (list (pair string string))) "site pairs" a.a_site_pairs a'.a_site_pairs;
          Alcotest.(check int) "timeline length" (List.length a.a_timeline)
            (List.length a'.a_timeline);
          Alcotest.(check bool) "timeline identical" true
            (List.for_all2
               (fun (p : Fuzzer.timeline_point) (p' : Fuzzer.timeline_point) ->
                 p.tp_campaign = p'.tp_campaign
                 && p.tp_alias_bits = p'.tp_alias_bits
                 && p.tp_branch_bits = p'.tp_branch_bits
                 && p.tp_inter_unique = p'.tp_inter_unique
                 && p.tp_new_inter = p'.tp_new_inter)
               a.a_timeline a'.a_timeline);
          Alcotest.(check int) "provenance entries" (List.length a.a_provenance)
            (List.length a'.a_provenance);
          Alcotest.(check bool) "provenance sched seeds identical" true
            (List.for_all2
               (fun (p : Pmrace.Artifact.prov_entry) (p' : Pmrace.Artifact.prov_entry) ->
                 p.pr_campaign = p'.pr_campaign && p.pr_sched_seed = p'.pr_sched_seed)
               a.a_provenance a'.a_provenance))

let test_artifact_rejects_foreign () =
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error (Pmrace.Artifact.of_json (J.Obj [ ("schema", J.String "nope"); ("version", J.Int 1) ])));
  Alcotest.(check bool) "newer version rejected" true
    (Result.is_error
       (Pmrace.Artifact.of_json
          (J.Obj [ ("schema", J.String Pmrace.Artifact.schema); ("version", J.Int 99) ])));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "version %d rejected" v)
        true
        (Result.is_error
           (Pmrace.Artifact.of_json
              (J.Obj [ ("schema", J.String Pmrace.Artifact.schema); ("version", J.Int v) ]))))
    [ 0; -1 ]

(* --- Replay ------------------------------------------------------------- *)

let test_replay_reproduces () =
  let a = Lazy.force fig1_artifact in
  List.iteri
    (fun i (b : Pmrace.Artifact.bug) ->
      match Pmrace.Replay.replay_bug ~target:Workloads.Figure1.target ~artifact:a ~bug:i with
      | Error e -> Alcotest.failf "replay of bug %d failed: %s" i e
      | Ok o ->
          Alcotest.(check bool)
            (Printf.sprintf "bug %d (%s at %s) reproduced" i b.b_kind b.b_site)
            true o.r_reproduced)
    a.a_bugs

let test_replay_errors () =
  let a = Lazy.force fig1_artifact in
  List.iter
    (fun bug ->
      Alcotest.(check bool)
        (Printf.sprintf "out-of-range bug index %d" bug)
        true
        (Result.is_error
           (Pmrace.Replay.replay_bug ~target:Workloads.Figure1.target ~artifact:a ~bug)))
    [ 99; -1 ];
  Alcotest.(check bool) "target mismatch" true
    (Result.is_error (Pmrace.Replay.replay_bug ~target:Workloads.Pclht.target ~artifact:a ~bug:0))

(* --- Bit-identity under instrumentation --------------------------------- *)

(* The PR's hard acceptance criterion: metrics on, events attached — the
   seeded workers=1 session still reproduces the PR 2 golden RNG history
   (first sched seed and full provenance hash) and bug set. *)
let test_metrics_on_bit_identical () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let obs = Obs.Events.create () in
      let events = ref [] in
      Obs.Events.attach obs (fun ev -> events := ev :: !events);
      let s =
        Fuzzer.run ~obs Workloads.Figure1.target
          (Fuzzer.Config.make ~max_campaigns:40 ~master_seed:3 ())
      in
      (match Hashtbl.find_opt s.provenance 0 with
      | Some p -> Alcotest.(check int) "first sched seed unchanged" 250784763 p.Fuzzer.p_sched_seed
      | None -> Alcotest.fail "missing provenance for campaign 0");
      let prov_hash =
        Hashtbl.fold
          (fun k (p : Fuzzer.provenance) acc -> (k, p.p_sched_seed) :: acc)
          s.provenance []
        |> List.sort compare
        |> List.fold_left (fun h (k, v) -> ((h * 1000003) + k + v) land 0x3FFFFFFF) 0
      in
      Alcotest.(check int) "provenance hash unchanged under instrumentation" 78631009 prov_hash;
      let bug_ids =
        List.map
          (fun (g : Report.bug_group) ->
            ( (match g.bg_kind with `Inter -> "Inter" | `Intra -> "Intra" | `Sync -> "Sync"),
              g.bg_site ))
          (Report.bug_groups s.report)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list (pair string string)))
        "bug groups unchanged"
        [ ("Inter", "figure1.c:store_x"); ("Sync", "figure1.c:g") ]
        bug_ids;
      Alcotest.(check (array int)) "per-worker campaign counts" [| 40 |] s.worker_campaigns;
      (* The event stream observed the session without perturbing it. *)
      let events = !events in
      Alcotest.(check bool) "events were captured" true (events <> []);
      let count p = List.length (List.filter p events) in
      Alcotest.(check int) "one campaign_start per campaign" 40
        (count (fun (e : Obs.Events.event) ->
             match e.ev_payload with Obs.Events.Campaign_start _ -> true | _ -> false)))

(* Workers meet at the hub twice per campaign: reserve and commit.  A
   random-mode session reads no priority queue, and with the static
   pre-pass and mined invariants on, the seed re-score and the invariant
   hits ride the commit, so the hub lock is taken exactly twice per
   campaign. *)
let test_hub_lock_two_per_campaign () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled false)
    (fun () ->
      let s =
        Fuzzer.run Workloads.Figure1.target
          (Fuzzer.Config.make ~max_campaigns:40 ~master_seed:5 ~mode:Fuzzer.Mode_random
             ~static_prepass:true ~invariants:true ())
      in
      Alcotest.(check bool) "an invariant was violated" true
        (Report.invariant_findings s.report <> []);
      match
        List.find_opt
          (fun (r : Obs.Metrics.reading) -> String.equal r.r_name "hub_lock_wait_seconds")
          (Obs.Metrics.snapshot ())
      with
      | Some { r_value = Obs.Metrics.Histogram { count; _ }; _ } ->
          Alcotest.(check int) "hub lock acquisitions" (2 * s.campaigns_run) count
      | _ -> Alcotest.fail "no hub_lock_wait_seconds histogram")

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    Alcotest.test_case "metrics enabled" `Quick test_metrics_enabled;
    Alcotest.test_case "metrics domain stress" `Quick test_metrics_domain_stress;
    Alcotest.test_case "events jsonl sink" `Quick test_events_jsonl;
    Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "artifact rejects foreign input" `Quick test_artifact_rejects_foreign;
    Alcotest.test_case "replay reproduces recorded bugs" `Quick test_replay_reproduces;
    Alcotest.test_case "replay error handling" `Quick test_replay_errors;
    Alcotest.test_case "metrics on: session bit-identical" `Quick test_metrics_on_bit_identical;
    Alcotest.test_case "hub lock: one reserve and one commit per campaign" `Quick
      test_hub_lock_two_per_campaign;
    Alcotest.test_case "json malformed unicode escapes" `Quick test_json_bad_unicode_escapes;
  ]
