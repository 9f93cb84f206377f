(* The record codecs behind session artifacts, fleet wire frames and fleet
   store files (Obs.Codec declarations in the modules that own each
   type).  The fixtures under fixtures/ pin the formats:

   - artifact_vN.json: a figure1 session recorded by the release that
     introduced schema version N (v3 is a merge of two shards);
   - artifact_vN_as_v5.json: artifact_vN.json read and re-written by the
     v5 writer before the codecs were declarative;
   - artifact_all_variants.json: one artifact exercising every op, policy
     spec and optional field, written by that same writer;
   - artifact_vN_as_v6.json, artifact_all_variants_as_v6.json: the same
     artifacts as the v6 writer writes them, each seed once in the
     "seeds" table;
   - wire_goldens.txt: one frame per wire message variant;
   - store/: a coordinator store directory;
   - delta_pclht.json: the aggregate coverage delta of a 12-campaign
     p-clht fleet session (a store's coverage.json), written while the
     shared queue still kept its per-address sites and threads in
     [Set]s.

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
(* JSON parser: what [Obs.Json.of_string] returns for strings, escapes
   and trailing bytes, error text and byte offset included. *)

let test_json_parse_pins () =
  let show = function
    | Ok j -> "ok " ^ J.to_string ~minify:true j
    | Error e -> e
  in
  List.iter
    (fun (input, want) -> Alcotest.(check string) (Printf.sprintf "%S" input) want (show (J.of_string input)))
    [
      ({|{"a": "abc|}, "JSON parse error at offset 10: unterminated string");
      ({|"ab\|}, "JSON parse error at offset 4: truncated escape");
      ({|["ok", "a\qb"]|}, "JSON parse error at offset 10: invalid escape \\q");
      ({|"\u12"|}, "JSON parse error at offset 3: truncated \\u escape");
      ({|"\u12x4"|}, "JSON parse error at offset 5: invalid hex digit 'x' in \\u escape");
      ({|"\ud800\n"|}, "ok \"\xed\xa0\x80\\n\"");
      ({|"\ud800\nabcdef"|}, "ok \"\xed\xa0\x80\\nabcdef\"");
      ({|{} x|}, "JSON parse error at offset 3: trailing garbage");
      ("[1, 2]\n\t \r", "ok [1,2]");
      ({|  "plain", 1|}, "JSON parse error at offset 9: trailing garbage");
      ("\"raw\ttab\x01\xc3\xa9\"",
        "JSON parse error at offset 4: unescaped control character '\\t' in string");
      ("[\"ok\", \"a\x01\"]", "JSON parse error at offset 9: unescaped control character '\\001' in string");
      ("\"\\u0001\xc3\xa9\"", "ok \"\\u0001\xc3\xa9\"");
      ("+1", "JSON parse error at offset 0: unexpected character +");
      ("[1, -]", "JSON parse error at offset 5: invalid number: expected a digit");
      ("01", "JSON parse error at offset 1: invalid number: leading zero");
      ("[-01]", "JSON parse error at offset 3: invalid number: leading zero");
      ("[1., 1e]", "JSON parse error at offset 3: invalid number: expected a digit");
      ("[0, -0, 10, 1e-05, 2.5E+2, -7]", "ok [0,0,10,1.0000000000000001e-05,250,-7]");
      ({|{"k\"ey": "v\/w"}|}, {|ok {"k\"ey":"v/w"}|});
      ({|{"a" 1}|}, "JSON parse error at offset 5: expected :, found 1");
      ({|{"a": 1 "b"}|}, "JSON parse error at offset 8: expected ',' or '}'");
      ({|[1 2]|}, "JSON parse error at offset 3: expected ',' or ']'");
      ({|{ x}|}, "JSON parse error at offset 2: expected \", found x");
      ("  ", "JSON parse error at offset 2: unexpected end of input");
    ]

(* ------------------------------------------------------------------ *)
(* Artifacts *)

(* [text], a v6 artifact, with each seed reference replaced by its table
   entry, the table dropped and the version set to 5: the bytes the v5
   writer wrote for the same artifact. *)
let inline_seeds text =
  match J.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj fields) ->
      let seeds =
        match List.assoc_opt "seeds" fields with
        | Some (J.List l) -> Array.of_list l
        | _ -> Alcotest.fail "no seeds table"
      in
      let inline = function
        | J.Obj p ->
            J.Obj (List.map (function "seed", J.Int i -> ("seed", seeds.(i)) | kv -> kv) p)
        | j -> j
      in
      J.to_string
        (J.Obj
           (List.filter_map
              (function
                | "seeds", _ -> None
                | "version", _ -> Some ("version", J.Int 5)
                | "provenance", J.List l -> Some ("provenance", J.List (List.map inline l))
                | kv -> Some kv)
              fields))
      ^ "\n"
  | Ok _ -> Alcotest.fail "not an object"

let test_artifact_fixtures () =
  List.iter
    (fun v ->
      let want = if v = 6 then "artifact_v6.json" else Printf.sprintf "artifact_v%d_as_v6.json" v in
      (* Each schema version's file, and its v5 re-encoding, decode to the
         artifact the v6 writer writes as [want]. *)
      let inputs =
        Printf.sprintf "artifact_v%d.json" v
        :: (if v < 5 then [ Printf.sprintf "artifact_v%d_as_v5.json" v ] else [])
      in
      List.iter
        (fun input ->
          let a = read_artifact input in
          Alcotest.(check string)
            (Printf.sprintf "%s re-encodes as %s" input want)
            (read_file (fixture want)) (artifact_text a);
          Alcotest.(check (list (pair string string)))
            (input ^ " bug groups")
            [ ("inter", "figure1.c:store_x"); ("sync", "figure1.c:g") ]
            (Artifact.bug_fingerprints a))
        inputs;
      (* v6 changed nothing but where the seeds are stored. *)
      if v < 6 then
        let v5 = if v = 5 then "artifact_v5.json" else Printf.sprintf "artifact_v%d_as_v5.json" v in
        Alcotest.(check string)
          (Printf.sprintf "%s with its seeds inlined is %s" want v5)
          (read_file (fixture v5))
          (inline_seeds (read_file (fixture want))))
    [ 1; 2; 3; 4; 5; 6 ];
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

(* The table holds one entry per distinct seed, and provenance entries
   with equal seeds decode to one shared seed. *)
let test_artifact_seeds_interned () =
  let j = parse_fixture "artifact_v6.json" in
  let table =
    match J.member "seeds" j with Some (J.List l) -> l | _ -> Alcotest.fail "no seeds table"
  in
  let a = read_artifact "artifact_v6.json" in
  let contents = List.map (fun (p : Artifact.prov_entry) -> Seed.threads p.pr_seed) a.a_provenance in
  Alcotest.(check int) "one entry per distinct seed"
    (List.length (List.sort_uniq compare contents))
    (List.length table);
  Alcotest.(check bool) "fewer entries than provenance" true
    (List.length table < List.length a.a_provenance);
  List.iter
    (fun (p : Artifact.prov_entry) ->
      List.iter
        (fun (q : Artifact.prov_entry) ->
          if Seed.threads p.pr_seed = Seed.threads q.pr_seed && p.pr_seed != q.pr_seed then
            Alcotest.failf "campaigns %d and %d decode equal seeds to two values" p.pr_campaign
              q.pr_campaign)
        a.a_provenance)
    a.a_provenance

let test_artifact_all_variants () =
  let a = read_artifact "artifact_all_variants.json" in
  Alcotest.(check string) "re-encodes as artifact_all_variants_as_v6.json"
    (read_file (fixture "artifact_all_variants_as_v6.json"))
    (artifact_text a);
  Alcotest.(check string) "with its seeds inlined it is the v5 file"
    (read_file (fixture "artifact_all_variants.json"))
    (inline_seeds (artifact_text a));
  Alcotest.(check string) "the v6 file re-encodes byte-identical"
    (read_file (fixture "artifact_all_variants_as_v6.json"))
    (artifact_text (read_artifact "artifact_all_variants_as_v6.json"));
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
  (match Artifact.of_json (set [ `K "config" ] (J.Obj []) j) with
  | Ok _ -> Alcotest.fail "an empty config decoded"
  | Error e -> Alcotest.(check string) "missing field" "config.max_campaigns: missing field" e);
  let v6 = parse_fixture "artifact_v6.json" in
  match Artifact.of_json (set [ `K "seeds"; `I 2; `I 0; `I 0; `K "key" ] (J.String "x") v6) with
  | Ok _ -> Alcotest.fail "a string key in the seeds table decoded"
  | Error e -> Alcotest.(check string) "table errors name the path" "seeds[2][0][0].key: expected int" e

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
  (* Delay settings a replay could only reject mid-run. *)
  let variants = parse_fixture "artifact_all_variants.json" in
  List.iter
    (fun (label, key, v, msg) ->
      match Artifact.of_json (set [ `K "provenance"; `I 1; `K "spec"; `K key ] v variants) with
      | Ok _ -> Alcotest.failf "%s decoded" label
      | Error e -> Alcotest.(check string) label ("provenance[1].spec." ^ key ^ ": " ^ msg) e)
    [
      ("delay max_delay 0", "max_delay", J.Int 0, "expected an int >= 1");
      ("delay max_delay -3", "max_delay", J.Int (-3), "expected an int >= 1");
      ("delay prob 1.5", "prob", J.Float 1.5, "expected a probability in [0, 1]");
      ("delay prob -0.1", "prob", J.Float (-0.1), "expected a probability in [0, 1]");
      ("delay prob nan", "prob", J.Float Float.nan, "expected a probability in [0, 1]");
    ];
  (* Seed references (v6). *)
  let v6 = parse_fixture "artifact_v6.json" in
  let entries =
    match J.member "seeds" v6 with Some (J.List l) -> List.length l | _ -> Alcotest.fail "no seeds table"
  in
  let outside i = Printf.sprintf "index %d outside the \"seeds\" table (%d entries)" i entries in
  List.iter
    (fun (label, doc, msg) ->
      match Artifact.of_json doc with
      | Ok _ -> Alcotest.failf "%s decoded" label
      | Error e -> Alcotest.(check string) label msg e)
    [
      ( "seed reference out of range",
        set [ `K "provenance"; `I 3; `K "seed" ] (J.Int entries) v6,
        "provenance[3].seed: " ^ outside entries );
      ( "negative seed reference",
        set [ `K "provenance"; `I 3; `K "seed" ] (J.Int (-1)) v6,
        "provenance[3].seed: " ^ outside (-1) );
      ( "string seed reference",
        set [ `K "provenance"; `I 3; `K "seed" ] (J.String "0") v6,
        "provenance[3].seed: expected int" );
      ( "v6 without a seeds table",
        (match v6 with
        | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> k <> "seeds") fs)
        | _ -> Alcotest.fail "not an object"),
        "provenance[0].seed: index 0, but there is no \"seeds\" table" );
      ("seeds table not a list", set [ `K "seeds" ] (J.Obj []) v6, "seeds: expected list");
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

(* The delta codec across the queue's change of representation: a delta
   written by the set-based queue decodes and re-encodes byte-identical,
   and decoding then merging it equals merging it twice (idempotence). *)
let test_recorded_delta () =
  let text = String.trim (read_file (fixture "delta_pclht.json")) in
  match Hub.delta_of_json (parse_fixture "delta_pclht.json") with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check string) "re-encoded byte-identical" text
        (J.to_string ~minify:true (Hub.delta_to_json d));
      let dst = Hub.fresh_delta () in
      Result.get_ok (Hub.merge_delta_into ~src:d ~dst);
      Result.get_ok (Hub.merge_delta_into ~src:d ~dst);
      let queue d = Pmrace.Shared_queue.entries d.Hub.d_queue in
      Alcotest.(check int) "shared addresses" (List.length (queue d)) (List.length (queue dst));
      Alcotest.(check bool) "merging twice doubles only the hits" true
        (List.for_all2
           (fun (a : Pmrace.Shared_queue.entry) (b : Pmrace.Shared_queue.entry) ->
             a.addr = b.addr && a.loads = b.loads && a.stores = b.stores && b.hits = 2 * a.hits)
           (queue d) (queue dst))

(* Untrusted deltas (wire frames, store files): one structural mutation of
   a real delta's JSON — a number pushed out of range, a string or list
   edited, a field dropped, duplicated or renamed, a value of the wrong
   type — must decode to [Error] or to a delta that merges and
   re-encodes without raising.  A mutated site name registers a new
   site, so this property runs last. *)
let real_deltas = lazy [ parse_fixture "delta_pclht.json"; parse_fixture "store/coverage.json" ]

let rec nodes : J.t -> int = function
  | J.List l -> List.fold_left (fun n x -> n + nodes x) 1 l
  | J.Obj fs -> List.fold_left (fun n (_, x) -> n + nodes x) 1 fs
  | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ -> 1

let rec strings acc = function
  | J.String s -> s :: acc
  | J.List l -> List.fold_left strings acc l
  | J.Obj fs -> List.fold_left (fun acc (_, x) -> strings acc x) acc fs
  | J.Null | J.Bool _ | J.Int _ | J.Float _ -> acc

let mutate_node ~pool choice r (j : J.t) : J.t =
  let pick l = List.nth l (r mod List.length l) in
  match (j, choice mod 6) with
  | J.Int n, (0 | 1 | 2) ->
      J.Int (pick [ -1; -n; n + 1; max_int; min_int; 1 lsl 24; 1 lsl 40; 62; 63; 64; 0; r ])
  | J.String s, (0 | 1 | 2) -> J.String (pick [ ""; s ^ s; String.sub s 0 (String.length s / 2); pick pool ])
  | J.List (x :: rest), (0 | 1 | 2) -> J.List (pick [ rest; x :: x :: rest; []; List.rev (x :: rest) ])
  | J.Obj ((k, v) :: rest), (0 | 1 | 2) ->
      J.Obj (pick [ rest; (k, v) :: (k, v) :: rest; (k ^ "_", v) :: rest; rest @ [ (k, J.Null) ] ])
  | _, _ -> pick [ J.Null; J.Int r; J.Int (-r); J.String (pick pool); J.List []; J.Obj []; J.Bool true ]

(* Replace the [k]th node (pre-order) by its mutation. *)
let mutate ~pool k choice r (j : J.t) =
  let k = ref k in
  let rec go (j : J.t) : J.t =
    let here = !k = 0 in
    decr k;
    if here then mutate_node ~pool choice r j
    else
      match j with
      | J.List l -> J.List (List.map go l)
      | J.Obj fs -> J.Obj (List.map (fun (n, x) -> (n, go x)) fs)
      | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ -> j
  in
  go j

let prop_delta_decoder_total =
  QCheck.Test.make ~name:"delta decoder: mutated real deltas give Error or a usable delta"
    ~count:300
    QCheck.(quad (int_bound 1) (int_bound 1_000_000) (int_bound 5) (int_bound 1_000_000))
    (fun (which, at, choice, r) ->
      let j = List.nth (Lazy.force real_deltas) which in
      let pool = match strings [] j with [] -> [ "" ] | l -> l in
      let j' = mutate ~pool (at mod nodes j) choice r j in
      match Hub.delta_of_json j' with
      | Error _ -> true
      | Ok d ->
          let dst = Hub.fresh_delta () in
          ignore (Hub.merge_delta_into ~src:d ~dst);
          ignore (J.to_string (Hub.delta_to_json d));
          ignore (J.to_string (Hub.delta_to_json dst));
          true)

let suite =
  [
    Alcotest.test_case "json parser: error text and offsets" `Quick test_json_parse_pins;
    Alcotest.test_case "artifact fixtures v1-v6 decode and re-encode" `Quick test_artifact_fixtures;
    Alcotest.test_case "artifact: seeds interned" `Quick test_artifact_seeds_interned;
    Alcotest.test_case "artifact: every variant re-encodes" `Quick test_artifact_all_variants;
    Alcotest.test_case "decode errors name the path" `Quick test_error_paths;
    Alcotest.test_case "malformed values are errors" `Quick test_malformed_values_rejected;
    Alcotest.test_case "wire: every message variant golden" `Quick test_wire_goldens;
    Alcotest.test_case "store: fixture loads and re-saves identical" `Quick test_store_fixture;
    Alcotest.test_case "delta: recorded p-clht delta re-encodes identical" `Quick
      test_recorded_delta;
    QCheck_alcotest.to_alcotest prop_delta_decoder_total;
  ]
