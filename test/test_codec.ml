(* The record codecs behind session artifacts, fleet wire frames and fleet
   store files (Obs.Codec declarations in the modules that own each
   type).  The fixtures under fixtures/ pin the formats:

   - artifact_vN.json: a figure1 session recorded by the release that
     introduced schema version N (v3 is a merge of two shards);
   - artifact_vN_as_v5.json: artifact_vN.json read and re-written by the
     v5 writer before the codecs were declarative;
   - artifact_all_variants.json: one artifact exercising every op, policy
     spec and optional field, written by that same writer;
   - wire_goldens.txt: one frame per wire message variant;
   - store/: a coordinator store directory.

   The all-variants artifact, the wire goldens and the store register
   novel Instr site names, so this suite runs after every golden session
   (see test_main.ml). *)

module J = Obs.Json
module Artifact = Pmrace.Artifact
module Seed = Pmrace.Seed
module Hub = Pmrace.Hub
module Wire = Fleet.Wire

(* [dune runtest] runs in test/; [dune exec test/test_main.exe] in the
   repository root. *)
let fixture name =
  Filename.concat (if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures") name
let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_fixture name =
  match J.of_string (read_file (fixture name)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" name e

(* The bytes [Artifact.write] produces. *)
let artifact_text a = J.to_string (Artifact.to_json a) ^ "\n"

let read_artifact name =
  match Artifact.read ~path:(fixture name) with
  | Ok a -> a
  | Error e -> Alcotest.failf "%s does not decode: %s" name e

(* Replace the value at [path] (object keys and list indices). *)
let rec set path v j =
  match (path, j) with
  | [], _ -> v
  | `K k :: rest, J.Obj fs -> J.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) fs)
  | `I i :: rest, J.List l -> J.List (List.mapi (fun i' x -> if i' = i then set rest v x else x) l)
  | _ -> Alcotest.fail "set: path does not exist"

(* ------------------------------------------------------------------ *)
(* Artifacts *)

let test_artifact_fixtures () =
  List.iter
    (fun v ->
      let a = read_artifact (Printf.sprintf "artifact_v%d.json" v) in
      let want = if v = 5 then "artifact_v5.json" else Printf.sprintf "artifact_v%d_as_v5.json" v in
      Alcotest.(check string)
        (Printf.sprintf "v%d re-encodes as %s" v want)
        (read_file (fixture want)) (artifact_text a);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "v%d bug groups" v)
        [ ("inter", "figure1.c:store_x"); ("sync", "figure1.c:g") ]
        (Artifact.bug_fingerprints a))
    [ 1; 2; 3; 4; 5 ];
  (* Fields newer than a fixture's version come out at their defaults. *)
  let v1 = read_artifact "artifact_v1.json" in
  Alcotest.(check bool) "v1: no lint, origins, por" true
    (v1.a_lint = [] && v1.a_origins = [] && v1.a_por = None);
  Alcotest.(check int) "v1: crash_images defaults to 1" 1 v1.a_config.crash_images;
  Alcotest.(check bool) "v1: no image index" true
    (List.for_all (fun (b : Artifact.bug) -> b.b_image_index = None) v1.a_bugs);
  Alcotest.(check int) "v3: two merged origins" 2 (List.length (read_artifact "artifact_v3.json").a_origins);
  Alcotest.(check bool) "v4: image indices recorded" true
    (List.for_all (fun (b : Artifact.bug) -> b.b_image_index <> None) (read_artifact "artifact_v4.json").a_bugs);
  Alcotest.(check bool) "v5: por totals recorded" true ((read_artifact "artifact_v5.json").a_por <> None)

let test_artifact_all_variants () =
  let a = read_artifact "artifact_all_variants.json" in
  Alcotest.(check string) "re-encodes byte-identical" (read_file (fixture "artifact_all_variants.json"))
    (artifact_text a);
  Alcotest.(check (list string)) "every policy spec kind"
    [ "pmrace"; "delay"; "random"; "none" ]
    (List.map
       (fun (p : Artifact.prov_entry) ->
         match p.pr_spec with
         | Pmrace.Campaign.Pmrace _ -> "pmrace"
         | Delay _ -> "delay"
         | Random_sched -> "random"
         | No_preempt -> "none")
       a.a_provenance)

let test_error_paths () =
  let j = parse_fixture "artifact_v5.json" in
  let bad = set [ `K "provenance"; `I 0; `K "seed"; `I 0; `I 0; `K "key" ] (J.String "x") j in
  (match Artifact.of_json bad with
  | Ok _ -> Alcotest.fail "a string key decoded"
  | Error e ->
      Alcotest.(check string) "error names the path" "provenance[0].seed[0][0].key: expected int" e);
  match Artifact.of_json (set [ `K "config" ] (J.Obj []) j) with
  | Ok _ -> Alcotest.fail "an empty config decoded"
  | Error e -> Alcotest.(check string) "missing field" "config.max_campaigns: missing field" e

(* Each of these once decoded: as [None], with the read site dropped, or
   as 0 campaigns. *)
let test_malformed_values_rejected () =
  let j = parse_fixture "artifact_v5.json" in
  List.iter
    (fun (label, path, v) ->
      Alcotest.(check bool) label true (Result.is_error (Artifact.of_json (set path v j))))
    [
      ("artifact bug first_campaign \"x\"", [ `K "bugs"; `I 0; `K "first_campaign" ], J.String "x");
      ("artifact bug image_index true", [ `K "bugs"; `I 0; `K "image_index" ], J.Bool true);
      ("artifact possible_pairs \"x\"", [ `K "coverage"; `K "possible_pairs" ], J.String "x");
      ("artifact campaigns 1e300", [ `K "campaigns" ], J.Float 1e300);
    ];
  let bug_frame first =
    J.Obj
      [
        ("type", J.String "bug");
        ("kind", J.String "inter");
        ("site", J.String "golden.c:w");
        ("read_sites", J.List []);
        ("members", J.Int 1);
        ("first_campaign", first);
      ]
  in
  Alcotest.(check bool) "wire bug frame decodes" true (Result.is_ok (Wire.client_of_json (bug_frame (J.Int 3))));
  Alcotest.(check bool) "wire bug first_campaign \"x\"" true
    (Result.is_error (Wire.client_of_json (bug_frame (J.String "x"))));
  let dir = Test_fleet.temp_dir "codec_bad_bugs" in
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat dir "meta.json") (fun oc ->
      output_string oc (read_file (fixture "store/meta.json")));
  Out_channel.with_open_bin (Filename.concat dir "bugs.json") (fun oc ->
      output_string oc
        {|[{"kind":"inter","site":"s","read_sites":[1],"members":1,"origin":"w","first_campaign":null}]|});
  Alcotest.(check bool) "store bugs.json read_sites [1]" true
    (Result.is_error (Fleet.Store.open_store ~dir ~target:"figure1" ~budget:50))

(* ------------------------------------------------------------------ *)
(* Wire *)

let all_ops_seed () =
  Seed.make
    [|
      [|
        Seed.Put { key = 1; value = 10 };
        Seed.Get { key = 2 };
        Seed.Update { key = 3; value = -4 };
        Seed.Delete { key = 5 };
        Seed.Incr { key = 6; delta = 7 };
        Seed.Decr { key = 8; delta = 9 };
      |];
      [|
        Seed.Append { key = 10; value = 11 };
        Seed.Prepend { key = 12; value = 13 };
        Seed.Scan { key = 14; count = 15 };
        Seed.Cas { key = 16; value = 17; token = 18 };
        Seed.Touch { key = 19; exptime = 20 };
        Seed.Flush_all;
        Seed.Stats;
      |];
      [||];
    |]

let small_delta () =
  let j =
    J.Obj
      [
        ( "alias",
          J.Obj
            [
              ("size", J.Int 16);
              ("bits", J.String "a501");
              ( "site_pairs",
                J.List [ J.Obj [ ("write", J.String "golden.c:w"); ("read", J.String "golden.c:r") ] ] );
            ] );
        ("branch", J.List [ J.String "golden.c:b" ]);
        ( "queue",
          J.List
            [
              J.Obj
                [
                  ("addr", J.Int 8);
                  ("loads", J.List [ J.String "golden.c:r" ]);
                  ("stores", J.List [ J.String "golden.c:w" ]);
                  ("load_tids", J.List [ J.Int 0 ]);
                  ("store_tids", J.List [ J.Int 1; J.Int 2 ]);
                  ("hits", J.Int 3);
                ];
            ] );
      ]
  in
  match Hub.delta_of_json j with Ok d -> d | Error e -> Alcotest.fail e

let test_wire_goldens () =
  let goldens =
    read_file (fixture "wire_goldens.txt")
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           match String.index_opt line '\t' with
           | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
           | None -> Alcotest.failf "bad golden line %S" line)
  in
  let frames =
    [
      ("hello", Wire.client_to_json (Wire.Hello { target = "figure1"; version = Wire.protocol_version }));
      ("lease_req", Wire.client_to_json (Wire.Lease_req { campaigns = 30; seeds = 4 }));
      ( "delta",
        Wire.client_to_json
          (Wire.Delta
             {
               delta = small_delta ();
               campaigns = 7;
               seeds = [ (all_ops_seed (), [ ("golden.c:w", "golden.c:r") ]); (all_ops_seed (), []) ];
             }) );
      ( "bug",
        Wire.client_to_json
          (Wire.Bug
             {
               kind = "inter";
               site = "golden.c:w";
               read_sites = [ "golden.c:r"; "golden.c:r2" ];
               members = 2;
               first_campaign = Some 5;
             }) );
      ( "bug_no_first",
        Wire.client_to_json
          (Wire.Bug
             { kind = "sync"; site = "golden.c:g"; read_sites = []; members = 1; first_campaign = None })
      );
      ("bye", Wire.client_to_json Wire.Bye);
      ( "hello_ack",
        Wire.server_to_json (Wire.Hello_ack { widx = 1; budget_total = 50; budget_used = 7; corpus = 3 }) );
      ("lease", Wire.server_to_json (Wire.Lease { campaigns = 12; seeds = [ all_ops_seed () ] }));
      ("retry", Wire.server_to_json Wire.Retry);
      ("drained", Wire.server_to_json Wire.Drained);
      ("delta_ack", Wire.server_to_json Wire.Delta_ack);
      ("bug_ack", Wire.server_to_json (Wire.Bug_ack { fresh = true }));
      ("bye_ack", Wire.server_to_json Wire.Bye_ack);
      ("error", Wire.server_to_json (Wire.Err "boom \"quoted\""));
    ]
  in
  Alcotest.(check (list string)) "one golden per variant" (List.map fst goldens) (List.map fst frames);
  List.iter2
    (fun (label, want) (_, frame) ->
      Alcotest.(check string) (label ^ " encodes to its golden") want (J.to_string ~minify:true frame);
      (* and the golden decodes back to the same frame *)
      let reencoded =
        match J.of_string want with
        | Error e -> Alcotest.fail e
        | Ok j -> (
            match (Wire.client_of_json j, Wire.server_of_json j) with
            | Ok m, _ -> Wire.client_to_json m
            | _, Ok m -> Wire.server_to_json m
            | Error e, Error _ -> Alcotest.failf "%s: %s" label e)
      in
      Alcotest.(check string) (label ^ " decodes") want (J.to_string ~minify:true reencoded))
    goldens frames

(* ------------------------------------------------------------------ *)
(* Store *)

let store_files = [ "meta.json"; "coverage.json"; "bugs.json"; "corpus/422e152b9444935f.json" ]

let test_store_fixture () =
  let dir = Test_fleet.temp_dir "codec_store" in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "corpus") 0o755;
  List.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          output_string oc (read_file (fixture ("store/" ^ f)))))
    store_files;
  match Fleet.Store.open_store ~dir ~target:"figure1" ~budget:50 with
  | Error e -> Alcotest.fail e
  | Ok st ->
      Alcotest.(check int) "budget used" 7 (Fleet.Store.budget_used st);
      Alcotest.(check int) "bug entries" 2 (List.length (Fleet.Store.bugs st));
      Alcotest.(check int) "corpus entries" 1 (Pmrace.Corpus_sched.size (Fleet.Store.corpus st));
      (* Opening re-saved meta.json; no-op mutations re-save the rest. *)
      Result.get_ok (Fleet.Store.merge_delta st (Hub.fresh_delta ()));
      ignore
        (Fleet.Store.record_bug st ~kind:"inter" ~site:"golden.c:w" ~read_sites:[] ~members:0
           ~origin:"none" ~first_campaign:None);
      Fleet.Store.credit_seed st (all_ops_seed ()) [];
      List.iter
        (fun f ->
          Alcotest.(check string)
            (f ^ " re-saved byte-identical")
            (read_file (fixture ("store/" ^ f)))
            (read_file (Filename.concat dir f)))
        store_files

let suite =
  [
    Alcotest.test_case "artifact fixtures v1-v5 decode and re-encode" `Quick test_artifact_fixtures;
    Alcotest.test_case "artifact: every variant re-encodes" `Quick test_artifact_all_variants;
    Alcotest.test_case "decode errors name the path" `Quick test_error_paths;
    Alcotest.test_case "malformed values are errors" `Quick test_malformed_values_rejected;
    Alcotest.test_case "wire: every message variant golden" `Quick test_wire_goldens;
    Alcotest.test_case "store: fixture loads and re-saves identical" `Quick test_store_fixture;
  ]
