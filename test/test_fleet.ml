(* Fleet mode: seed fingerprints, AFL-style corpus scheduling, the wire
   protocol and durable store, the merge algebra fleet-mode accumulation
   relies on (QCheck), and a live coordinator/worker exchange over a
   Unix-domain socket.

   This suite registers novel Instr site names at runtime (wire/store
   decoding does so by design), which shifts the raw alias-bitmap hash
   layout of any *later* session in this binary — so it must stay LAST
   in test_main.ml, after the golden sessions in test_parallel.ml and
   test_integration.ml have run. *)

module Fuzzer = Pmrace.Fuzzer
module Seed = Pmrace.Seed
module Hub = Pmrace.Hub
module Artifact = Pmrace.Artifact
(* The scheduler itself lives in pmrace; [Fleet.Corpus_sched] is its
   constrained fleet-facing re-export, too narrow for these whitebox
   tests (it hides [entries]/[tombstoned_count]). *)
module Corpus_sched = Pmrace.Corpus_sched
module Wire = Fleet.Wire
module Rng = Sched.Rng
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Seed.fingerprint: a stable content hash.  The exact values are part
   of the fleet's durable-store format (corpus entries are keyed by
   them), so they are pinned as goldens: if the hash changes, existing
   store directories silently lose their dedup. *)

let fixed_seed () =
  Seed.make
    [|
      [| Seed.Put { key = 1; value = 10 }; Seed.Get { key = 1 } |];
      [| Seed.Delete { key = 2 } |];
    |]

let test_fingerprint_golden () =
  Alcotest.(check int64)
    "fixed ops golden" 5460768835409237955L
    (Seed.fingerprint (fixed_seed ()));
  Alcotest.(check int64)
    "generated golden (rng 42, default profile)" 8353615945716149181L
    (Seed.fingerprint (Seed.gen (Rng.create 42) Seed.default_profile))

let test_fingerprint_content_only () =
  let a = fixed_seed () in
  let b = Seed.make (Seed.threads a) in
  Alcotest.(check bool) "distinct seed ids" false (Seed.id a = Seed.id b);
  Alcotest.(check int64) "same ops, same fingerprint" (Seed.fingerprint a) (Seed.fingerprint b);
  Seed.set_priority a 99;
  Alcotest.(check int64) "priority does not affect it" (Seed.fingerprint b) (Seed.fingerprint a)

let prop_fingerprint_deterministic =
  QCheck.Test.make ~name:"fleet: fingerprint is a function of the ops" ~count:200
    QCheck.small_int (fun n ->
      let gen seed = Seed.gen (Rng.create seed) Seed.default_profile in
      let a = gen n and b = gen n in
      Seed.fingerprint a = Seed.fingerprint b
      && Seed.fingerprint (Seed.make (Seed.threads a)) = Seed.fingerprint a)

(* ------------------------------------------------------------------ *)
(* Corpus_sched: dedup, the favored cover, tombstoning, lease rotation. *)

let seed_of_int n = Seed.gen (Rng.create (1000 + n)) Seed.default_profile

let test_corpus_dedup_absorbs () =
  let cs = Corpus_sched.create () in
  let s = seed_of_int 0 in
  (match Corpus_sched.add cs ~pairs:[ ("w1", "r1") ] s with
  | Some _ -> ()
  | None -> Alcotest.fail "first add must create an entry");
  (match Corpus_sched.add cs ~pairs:[ ("w2", "r2") ] (Seed.make (Seed.threads s)) with
  | None -> ()
  | Some _ -> Alcotest.fail "same-content seed must dedup");
  Alcotest.(check int) "one entry" 1 (Corpus_sched.size cs);
  match Corpus_sched.find cs (Seed.fingerprint s) with
  | None -> Alcotest.fail "entry findable by fingerprint"
  | Some e ->
      Alcotest.(check (list (pair string string)))
        "duplicate's pairs absorbed"
        [ ("w1", "r1"); ("w2", "r2") ]
        e.Corpus_sched.e_pairs

let test_corpus_cull_cover () =
  let cs = Corpus_sched.create () in
  let add n pairs = ignore (Corpus_sched.add cs ~pairs (seed_of_int n)) in
  add 1 [ ("a", "r") ];
  add 2 [ ("a", "r"); ("b", "r") ];
  add 3 [ ("b", "r"); ("c", "r") ];
  add 4 [];
  Corpus_sched.cull cs;
  (* The favored set must cover {a,b,c}; entry 1 is dominated by 2. *)
  let favored =
    List.filter (fun e -> e.Corpus_sched.e_favored) (Corpus_sched.entries cs)
  in
  let covered =
    List.sort_uniq compare (List.concat_map (fun e -> e.Corpus_sched.e_pairs) favored)
  in
  Alcotest.(check (list (pair string string)))
    "favored entries cover every achieved pair"
    [ ("a", "r"); ("b", "r"); ("c", "r") ]
    covered;
  Alcotest.(check bool) "a dominated entry is tombstoned" true
    (Corpus_sched.tombstoned_count cs >= 1);
  (* Tombstoned entries never lease; fresh credit resurrects them. *)
  let tomb =
    List.find (fun e -> e.Corpus_sched.e_tombstone) (Corpus_sched.entries cs)
  in
  let leased = Corpus_sched.lease cs (Corpus_sched.size cs) in
  Alcotest.(check bool) "tombstoned seed not leased" false
    (List.exists (fun s -> Seed.fingerprint s = tomb.Corpus_sched.e_fp) leased);
  Corpus_sched.credit_pairs cs tomb.Corpus_sched.e_fp [ ("z", "r") ];
  Alcotest.(check bool) "fresh credit resurrects" false tomb.Corpus_sched.e_tombstone

let test_corpus_lease_rotates () =
  let cs = Corpus_sched.create () in
  ignore (Corpus_sched.add cs ~pairs:[ ("a", "r") ] (seed_of_int 10));
  ignore (Corpus_sched.add cs ~pairs:[ ("b", "r") ] (seed_of_int 11));
  Corpus_sched.cull cs;
  Alcotest.(check int) "both favored" 2 (Corpus_sched.favored_count cs);
  let l1 = Corpus_sched.lease cs 1 and l2 = Corpus_sched.lease cs 1 in
  match (l1, l2) with
  | [ a ], [ b ] ->
      Alcotest.(check bool) "least-leased-first rotates through the favored set" false
        (Seed.fingerprint a = Seed.fingerprint b)
  | _ -> Alcotest.fail "lease 1 returns one seed"

(* ------------------------------------------------------------------ *)
(* Wire: codec round-trips and framing over a real socketpair. *)

let roundtrip_client msg =
  match Wire.client_of_json (Wire.client_to_json msg) with
  | Error e -> Alcotest.fail ("client decode: " ^ e)
  | Ok msg' ->
      Alcotest.(check string)
        "client msg round-trips"
        (J.to_string (Wire.client_to_json msg))
        (J.to_string (Wire.client_to_json msg'))

let roundtrip_server msg =
  match Wire.server_of_json (Wire.server_to_json msg) with
  | Error e -> Alcotest.fail ("server decode: " ^ e)
  | Ok msg' ->
      Alcotest.(check string)
        "server msg round-trips"
        (J.to_string (Wire.server_to_json msg))
        (J.to_string (Wire.server_to_json msg'))

let test_wire_codecs () =
  roundtrip_client (Wire.Hello { target = "figure1"; version = Wire.protocol_version });
  roundtrip_client (Wire.Lease_req { campaigns = 30; seeds = 4 });
  roundtrip_client
    (Wire.Delta
       {
         delta = Hub.fresh_delta ();
         campaigns = 7;
         seeds = [ (fixed_seed (), [ ("fleet.test:w", "fleet.test:r") ]) ];
       });
  roundtrip_client
    (Wire.Bug
       {
         kind = "inter";
         site = "fleet.test:w";
         read_sites = [ "fleet.test:r" ];
         members = 2;
         first_campaign = Some 5;
       });
  roundtrip_client Wire.Bye;
  roundtrip_server (Wire.Hello_ack { widx = 3; budget_total = 300; budget_used = 40; corpus = 9 });
  roundtrip_server (Wire.Lease { campaigns = 12; seeds = [ fixed_seed () ] });
  roundtrip_server Wire.Retry;
  roundtrip_server Wire.Drained;
  roundtrip_server Wire.Delta_ack;
  roundtrip_server (Wire.Bug_ack { fresh = true });
  roundtrip_server Wire.Bye_ack;
  roundtrip_server (Wire.Err "boom")

let test_wire_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames =
    [ J.Obj [ ("n", J.Int 1) ]; J.String (String.make 300 'x'); J.List [ J.Bool true; J.Null ] ]
  in
  List.iter (Wire.send a) frames;
  List.iter
    (fun expect ->
      match Wire.recv b with
      | Error e -> Alcotest.fail ("recv: " ^ e)
      | Ok got -> Alcotest.(check string) "frame intact" (J.to_string expect) (J.to_string got))
    frames;
  Unix.close a;
  (match Wire.recv b with
  | Error "eof" -> ()
  | Error e -> Alcotest.fail ("expected eof, got: " ^ e)
  | Ok _ -> Alcotest.fail "expected eof after close");
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Store: every acknowledged mutation survives a reload (the coordinator
   SIGKILL scenario), and bug sightings dedup by (kind, site). *)

let temp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmrace_%s_%d" name (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists d then rm d;
  d

let test_store_reload () =
  let dir = temp_dir "store" in
  (match Fleet.Store.open_store ~dir ~target:"figure1" ~budget:50 with
  | Error e -> Alcotest.fail e
  | Ok st ->
      let s = fixed_seed () in
      Alcotest.(check bool) "first add is new" true
        (Fleet.Store.add_seed st ~pairs:[ ("w", "r1") ] s);
      Alcotest.(check bool) "re-add dedups" false
        (Fleet.Store.add_seed st ~pairs:[ ("w", "r2") ] (Seed.make (Seed.threads s)));
      Alcotest.(check bool) "bug first sighting" true
        (Fleet.Store.record_bug st ~kind:"inter" ~site:"w" ~read_sites:[ "r1" ] ~members:1
           ~origin:"worker-0" ~first_campaign:(Some 3));
      Alcotest.(check bool) "bug re-sighting dedups" false
        (Fleet.Store.record_bug st ~kind:"inter" ~site:"w" ~read_sites:[ "r2" ] ~members:2
           ~origin:"worker-1" ~first_campaign:(Some 1));
      Fleet.Store.record_campaigns st 10;
      Alcotest.(check int) "widx 0" 0 (Fleet.Store.next_widx st);
      Alcotest.(check int) "widx 1" 1 (Fleet.Store.next_widx st));
  (* Reopen from disk: the budget ledger, client counter, corpus entry
     (with absorbed pairs) and merged bug sighting must all be back. *)
  match Fleet.Store.open_store ~dir ~target:"figure1" ~budget:50 with
  | Error e -> Alcotest.fail e
  | Ok st ->
      Alcotest.(check int) "used budget persisted" 10 (Fleet.Store.budget_used st);
      Alcotest.(check int) "remaining budget" 40 (Fleet.Store.budget_remaining st);
      Alcotest.(check int) "client counter persisted" 2 (Fleet.Store.next_widx st);
      Alcotest.(check int) "one corpus entry" 1
        (Corpus_sched.size (Fleet.Store.corpus st));
      (match Corpus_sched.find (Fleet.Store.corpus st) (Seed.fingerprint (fixed_seed ())) with
      | None -> Alcotest.fail "corpus entry reloaded by fingerprint"
      | Some e ->
          Alcotest.(check (list (pair string string)))
            "absorbed pairs persisted"
            [ ("w", "r1"); ("w", "r2") ]
            e.Corpus_sched.e_pairs);
      match Fleet.Store.bugs st with
      | [ b ] ->
          Alcotest.(check string) "bug kind" "inter" b.Fleet.Store.be_kind;
          Alcotest.(check int) "members summed across sightings" 3 b.Fleet.Store.be_members;
          Alcotest.(check (list string)) "read sites unioned" [ "r1"; "r2" ]
            b.Fleet.Store.be_read_sites;
          Alcotest.(check string) "first origin wins" "worker-0" b.Fleet.Store.be_origin
      | bs -> Alcotest.failf "expected one deduped bug, got %d" (List.length bs)

(* ------------------------------------------------------------------ *)
(* Merge algebra (QCheck).  Fleet accumulation rests on two invariants:
   merging the same delta twice leaves the coverage sets exactly as one
   merge does (a worker retrying a shipment is harmless), and the order
   shards merge in does not change the unique-bug set. *)

let qc_sites = Array.init 8 (fun i -> Printf.sprintf "fleet.qc:s%d" i)

(* A random non-empty delta, built through the wire codec (the only
   public constructor with content) — a faithful stand-in for a shipped
   worker delta. *)
let random_delta rng =
  let hex = Bytes.make (65536 / 8 * 2) '0' in
  for _ = 0 to 40 do
    Bytes.set hex (Rng.int rng (Bytes.length hex)) "123456789abcdef".[Rng.int rng 15]
  done;
  let pick () = qc_sites.(Rng.int rng (Array.length qc_sites)) in
  let pairs =
    List.init (1 + Rng.int rng 5) (fun _ ->
        J.Obj [ ("write", J.String (pick ())); ("read", J.String (pick ())) ])
  in
  let branches =
    List.sort_uniq compare (List.init (1 + Rng.int rng 6) (fun _ -> pick ()))
    |> List.map (fun n -> J.String n)
  in
  let queue =
    List.init (Rng.int rng 3) (fun i ->
        J.Obj
          [
            ("addr", J.Int (16 * i));
            ("loads", J.List [ J.String (pick ()) ]);
            ("stores", J.List [ J.String (pick ()) ]);
            ("load_tids", J.List [ J.Int 0 ]);
            ("store_tids", J.List [ J.Int 1 ]);
            ("hits", J.Int (1 + Rng.int rng 9));
          ])
  in
  let j =
    J.Obj
      [
        ( "alias",
          J.Obj
            [
              ("size", J.Int 65536);
              ("bits", J.String (Bytes.to_string hex));
              ("site_pairs", J.List pairs);
            ] );
        ("branch", J.List branches);
        ("queue", J.List queue);
      ]
  in
  match Hub.delta_of_json j with
  | Ok d -> d
  | Error e -> Alcotest.fail ("random delta decode: " ^ e)

(* The coverage-set view of a delta: alias bitmap + named site pairs +
   branch set.  Queue hit counters are additive by design and excluded. *)
let coverage_sets d =
  let j = Hub.delta_to_json d in
  let get name = Option.get (J.member name j) in
  J.to_string (J.Obj [ ("alias", get "alias"); ("branch", get "branch") ])

let prop_merge_idempotent =
  QCheck.Test.make ~name:"fleet: delta merge idempotent on coverage sets" ~count:60
    QCheck.small_int (fun n ->
      let rng = Rng.create n in
      let src = random_delta rng in
      let once = Hub.fresh_delta () and twice = Hub.fresh_delta () in
      Result.get_ok (Hub.merge_delta_into ~src ~dst:once);
      Result.get_ok (Hub.merge_delta_into ~src ~dst:twice);
      Result.get_ok (Hub.merge_delta_into ~src ~dst:twice);
      String.equal (coverage_sets once) (coverage_sets twice))

(* Three real figure1 shards, built once (inside the test run, after the
   golden suites).  Distinct master seeds make them genuinely divergent. *)
let shards =
  lazy
    (let mk label seed =
       let cfg = Fuzzer.Config.make ~max_campaigns:40 ~master_seed:seed () in
       let s = Fuzzer.run Workloads.Figure1.target cfg in
       (label, Artifact.of_session ~target:Workloads.Figure1.target ~cfg s)
     in
     [ mk "a" 3; mk "b" 7; mk "c" 11 ])

let prop_merge_order_independent =
  QCheck.Test.make ~name:"fleet: shard merge order does not change the unique-bug set" ~count:20
    QCheck.small_int (fun n ->
      let shards = Lazy.force shards in
      let reference =
        match Artifact.merge shards with Ok a -> a | Error e -> Alcotest.fail e
      in
      let permuted =
        Array.to_list (Rng.shuffle (Rng.create n) (Array.of_list shards))
      in
      match Artifact.merge permuted with
      | Error e -> Alcotest.fail e
      | Ok merged ->
          Artifact.bug_fingerprints merged = Artifact.bug_fingerprints reference
          && List.sort_uniq compare merged.Artifact.a_site_pairs
             = List.sort_uniq compare reference.Artifact.a_site_pairs
          && merged.Artifact.a_campaigns = reference.Artifact.a_campaigns)

let test_merge_origins_replayable () =
  let shards = Lazy.force shards in
  match Artifact.merge shards with
  | Error e -> Alcotest.fail e
  | Ok merged ->
      Alcotest.(check int) "campaigns sum" 120 merged.Artifact.a_campaigns;
      Alcotest.(check (list string))
        "origins in merge order" [ "a"; "b"; "c" ]
        (List.map (fun o -> o.Artifact.o_label) merged.Artifact.a_origins);
      Alcotest.(check (list int))
        "offsets accumulate by span" [ 0; 40; 80 ]
        (List.map (fun o -> o.Artifact.o_offset) merged.Artifact.a_origins);
      (* Re-based provenance is dense over the merged range... *)
      Alcotest.(check int) "provenance entries" 120 (List.length merged.Artifact.a_provenance);
      (* ...and a bug from the merged artifact replays end-to-end. *)
      match Pmrace.Replay.replay_bug ~target:Workloads.Figure1.target ~artifact:merged ~bug:0 with
      | Error e -> Alcotest.fail ("replay from merged artifact: " ^ e)
      | Ok o -> Alcotest.(check bool) "bug reproduced" true o.Pmrace.Replay.r_reproduced

(* ------------------------------------------------------------------ *)
(* End to end: a coordinator on a real socket, one worker process-worth
   of fuzzing in this process, drain, and the durable aftermath. *)

let test_coordinator_worker_session () =
  let dir = temp_dir "fleet_e2e" in
  Unix.mkdir dir 0o755;
  let socket_path = Filename.concat dir "hub.sock" in
  let store_dir = Filename.concat dir "store" in
  let ccfg =
    {
      Fleet.Coordinator.default_config with
      socket_path;
      store_dir;
      target = "figure1";
      budget = 30;
      campaigns_per_lease = 10;
      seeds_per_lease = 2;
    }
  in
  let ready = Atomic.make false in
  let coord =
    Domain.spawn (fun () ->
        Fleet.Coordinator.serve ~on_ready:(fun () -> Atomic.set ready true) ccfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let wcfg =
    {
      Fleet.Worker.default_config with
      connect = socket_path;
      cfg = Fuzzer.Config.make ~master_seed:3 ();
      lease_campaigns = 10;
      lease_seeds = 2;
    }
  in
  let outcome = Fleet.Worker.run wcfg Workloads.Figure1.target in
  match (outcome, Domain.join coord) with
  | Error e, _ -> Alcotest.fail ("worker: " ^ e)
  | _, Error e -> Alcotest.fail ("coordinator: " ^ e)
  | Ok o, Ok st ->
      Alcotest.(check int) "worker ran the whole budget" 30 o.Fleet.Worker.o_campaigns;
      Alcotest.(check int) "first worker index" 0 o.Fleet.Worker.o_widx;
      Alcotest.(check int) "coordinator accounted every campaign" 30
        st.Fleet.Coordinator.st_campaigns;
      Alcotest.(check int) "one client served" 1 st.Fleet.Coordinator.st_clients;
      let local_bugs =
        List.length (Pmrace.Report.bug_groups o.Fleet.Worker.o_session.Fuzzer.report)
      in
      Alcotest.(check int) "every local bug group reported fleet-wide" local_bugs
        st.Fleet.Coordinator.st_bugs;
      (* The drained store is the durable record: reopening it shows the
         same ledger a restarted coordinator would resume from. *)
      match Fleet.Store.open_store ~dir:store_dir ~target:"figure1" ~budget:30 with
      | Error e -> Alcotest.fail e
      | Ok store ->
          Alcotest.(check int) "budget fully used on disk" 30 (Fleet.Store.budget_used store);
          Alcotest.(check int) "bug sightings persisted" local_bugs
            (List.length (Fleet.Store.bugs store))

(* A client that skips or flunks the handshake gets an Err and is
   dropped — it must never reach the lease/delta/bug handlers (which
   would otherwise record work as "worker--1" and bypass the
   target-match check). *)
let test_protocol_hygiene () =
  let dir = temp_dir "fleet_hygiene" in
  Unix.mkdir dir 0o755;
  let socket_path = Filename.concat dir "hub.sock" in
  let ccfg =
    {
      Fleet.Coordinator.default_config with
      socket_path;
      store_dir = Filename.concat dir "store";
      target = "figure1";
      budget = 5;
      campaigns_per_lease = 5;
      seeds_per_lease = 1;
    }
  in
  let ready = Atomic.make false in
  let coord =
    Domain.spawn (fun () ->
        Fleet.Coordinator.serve ~on_ready:(fun () -> Atomic.set ready true) ccfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let expect_err_then_drop label msg =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    Wire.send fd (Wire.client_to_json msg);
    (match Wire.recv fd with
    | Ok j -> (
        match Wire.server_of_json j with
        | Ok (Wire.Err _) -> ()
        | _ -> Alcotest.failf "%s: expected an Err reply" label)
    | Error e -> Alcotest.failf "%s: expected an Err reply, got %s" label e);
    (match Wire.recv fd with
    | Error _ -> () (* eof: the coordinator dropped us *)
    | Ok _ -> Alcotest.failf "%s: coordinator must drop the connection" label);
    Unix.close fd
  in
  expect_err_then_drop "lease before hello" (Wire.Lease_req { campaigns = 1; seeds = 0 });
  expect_err_then_drop "delta before hello"
    (Wire.Delta { delta = Hub.fresh_delta (); campaigns = 3; seeds = [] });
  expect_err_then_drop "version mismatch"
    (Wire.Hello { target = "figure1"; version = Wire.protocol_version + 1 });
  (* A legitimate worker then drains the budget so the loop exits. *)
  let wcfg =
    {
      Fleet.Worker.default_config with
      connect = socket_path;
      cfg = Fuzzer.Config.make ~master_seed:3 ();
      lease_campaigns = 5;
      lease_seeds = 1;
    }
  in
  (match Fleet.Worker.run wcfg Workloads.Figure1.target with
  | Error e -> Alcotest.fail ("worker: " ^ e)
  | Ok o ->
      Alcotest.(check int) "rogue delta not accounted: full budget left for the worker" 5
        o.Fleet.Worker.o_campaigns);
  match Domain.join coord with
  | Error e -> Alcotest.fail ("coordinator: " ^ e)
  | Ok st ->
      Alcotest.(check int) "rogue clients never became workers" 1 st.Fleet.Coordinator.st_clients;
      Alcotest.(check int) "only leased campaigns accounted" 5 st.Fleet.Coordinator.st_campaigns

(* A delta whose alias bitmap has 2^10 bits instead of the default
   2^16: well-formed, so it decodes, but it cannot merge into the hub's
   aggregate. *)
let small_bitmap_delta () =
  let alias = Obs.Codec.encode Pmrace.Alias_cov.codec (Pmrace.Alias_cov.create ~size_log:10 ()) in
  match Hub.delta_to_json (Hub.fresh_delta ()) with
  | J.Obj fields ->
      J.Obj (List.map (fun (k, v) -> if k = "alias" then (k, alias) else (k, v)) fields)
  | _ -> Alcotest.fail "a delta encodes as an object"

(* A worker shipping such a delta gets an Err and is dropped while the
   coordinator keeps serving; a store whose coverage.json holds one does
   not open. *)
let test_bitmap_size_mismatch () =
  let dir = temp_dir "fleet_bitmap" in
  Unix.mkdir dir 0o755;
  let socket_path = Filename.concat dir "hub.sock" in
  let store_dir = Filename.concat dir "store" in
  let ccfg =
    {
      Fleet.Coordinator.default_config with
      socket_path;
      store_dir;
      target = "figure1";
      budget = 5;
      campaigns_per_lease = 5;
      seeds_per_lease = 1;
    }
  in
  let ready = Atomic.make false in
  let coord =
    Domain.spawn (fun () ->
        Fleet.Coordinator.serve ~on_ready:(fun () -> Atomic.set ready true) ccfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let delta =
    match Hub.delta_of_json (small_bitmap_delta ()) with
    | Ok d -> d
    | Error e -> Alcotest.failf "the rogue delta is well-formed: %s" e
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (* A coordinator that died on the delta would leave these reads hanging. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let exchange msg =
    Wire.send fd (Wire.client_to_json msg);
    Result.bind (Wire.recv fd) Wire.server_of_json
  in
  (match exchange (Wire.Hello { target = "figure1"; version = Wire.protocol_version }) with
  | Ok (Wire.Hello_ack _) -> ()
  | _ -> Alcotest.fail "handshake");
  (match exchange (Wire.Delta { delta; campaigns = 0; seeds = [] }) with
  | Ok (Wire.Err _) -> ()
  | Ok _ -> Alcotest.fail "a bitmap-size mismatch must be refused"
  | Error e -> Alcotest.failf "expected an Err reply, got %s" e);
  (match Wire.recv fd with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "coordinator must drop the rogue worker");
  Unix.close fd;
  let wcfg =
    {
      Fleet.Worker.default_config with
      connect = socket_path;
      cfg = Fuzzer.Config.make ~master_seed:3 ();
      lease_campaigns = 5;
      lease_seeds = 1;
    }
  in
  (match Fleet.Worker.run wcfg Workloads.Figure1.target with
  | Error e -> Alcotest.fail ("worker: " ^ e)
  | Ok o -> Alcotest.(check int) "the coordinator kept serving" 5 o.Fleet.Worker.o_campaigns);
  (match Domain.join coord with
  | Error e -> Alcotest.fail ("coordinator: " ^ e)
  | Ok st -> Alcotest.(check int) "budget drained" 5 st.Fleet.Coordinator.st_campaigns);
  Out_channel.with_open_bin (Filename.concat store_dir "coverage.json") (fun oc ->
      output_string oc (J.to_string (small_bitmap_delta ())));
  match Fleet.Store.open_store ~dir:store_dir ~target:"figure1" ~budget:5 with
  | Ok _ -> Alcotest.fail "a store with a mismatched coverage bitmap must not open"
  | Error _ -> ()

(* Adaptive lease sizing: rate × horizon clamped to [min, max]; an
   unmeasured client (rate 0) gets the cap so warm-up is not serialized
   on round trips. *)
let test_lease_size () =
  let size rate = Fleet.Coordinator.lease_size ~rate ~horizon:2.0 ~min_lease:5 ~max_lease:30 in
  Alcotest.(check int) "unmeasured client gets the cap" 30 (size 0.);
  Alcotest.(check int) "fast client clamps to the cap" 30 (size 1000.);
  Alcotest.(check int) "slow client clamps to the floor" 5 (size 0.1);
  Alcotest.(check int) "mid-rate client sized to horizon" 16 (size 8.4);
  Alcotest.(check int) "floor never exceeds the cap" 3
    (Fleet.Coordinator.lease_size ~rate:0.01 ~horizon:1.0 ~min_lease:10 ~max_lease:3)

(* ------------------------------------------------------------------ *)
(* Untrusted bytes: a truncated or byte-mutated session artifact or wire
   frame decodes to [Ok] or [Error] — never an exception.  Frames go
   through [Wire.recv] over a pipe (header included), then both message
   codecs; artifacts through [Obs.Json.of_string] and [Artifact.of_json],
   which is all [Artifact.read] does after reading the file. *)

let frame_bytes j =
  let payload = J.to_string j in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  Bytes.to_string hdr ^ payload

(* A saved coordinator store, as (path under the store directory, bytes)
   for each of its files: meta.json, coverage.json, bugs.json and one
   corpus entry. *)
let store_target = "figure1"

let saved_store () =
  let dir = temp_dir "untrusted_store_src" in
  (match Fleet.Store.open_store ~dir ~target:store_target ~budget:50 with
  | Error e -> Alcotest.fail e
  | Ok st ->
      ignore (Fleet.Store.add_seed st ~pairs:[ ("fleet.test:w", "fleet.test:r") ] (fixed_seed ()));
      ignore
        (Fleet.Store.record_bug st ~kind:"inter" ~site:"fleet.test:w"
           ~read_sites:[ "fleet.test:r" ] ~members:2 ~origin:"worker-0" ~first_campaign:(Some 3));
      Result.get_ok (Fleet.Store.merge_delta st (random_delta (Rng.create 5)));
      Fleet.Store.record_campaigns st 7);
  let entry = Printf.sprintf "%016Lx.json" (Seed.fingerprint (fixed_seed ())) in
  List.map
    (fun rel -> (rel, In_channel.with_open_bin (Filename.concat dir rel) In_channel.input_all))
    [ "meta.json"; "coverage.json"; "bugs.json"; Filename.concat "corpus" entry ]

let untrusted_docs =
  lazy
    (let target = Workloads.Figure1.target in
     let cfg = Fuzzer.Config.make ~max_campaigns:6 ~master_seed:5 () in
     let art = Artifact.of_session ~target ~cfg (Fuzzer.run target cfg) in
     [|
       `Artifact (J.to_string (Artifact.to_json art));
       `Frame
         (frame_bytes
            (Wire.client_to_json
               (Wire.Delta
                  {
                    delta = Hub.fresh_delta ();
                    campaigns = 7;
                    seeds = [ (fixed_seed (), [ ("fleet.test:w", "fleet.test:r") ]) ];
                  })));
       `Frame
         (frame_bytes
            (Wire.client_to_json
               (Wire.Bug
                  {
                    kind = "inter";
                    (* control and non-ASCII bytes: the frame is mostly \u escapes *)
                    site = "fleet.test:" ^ String.init 24 (fun i -> Char.chr (i + 1)) ^ "\xc3\xa9";
                    read_sites = [ "fleet.test:r" ];
                    members = 2;
                    first_campaign = Some 5;
                  })));
       `Frame (frame_bytes (Wire.server_to_json (Wire.Lease { campaigns = 12; seeds = [ fixed_seed () ] })));
     |]
     |> Fun.flip Array.append (Array.of_list (List.map (fun f -> `Store f) (saved_store ()))))

let decode_untrusted doc bytes =
  match doc with
  | `Artifact _ -> (
      match J.of_string bytes with Ok j -> ignore (Artifact.of_json j) | Error _ -> ())
  | `Frame _ ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let b = Bytes.of_string bytes in
          let rec write off =
            if off < Bytes.length b then write (off + Unix.write w b off (Bytes.length b - off))
          in
          write 0;
          Unix.close w;
          match Wire.recv r with
          | Ok j ->
              ignore (Wire.client_of_json j);
              ignore (Wire.server_of_json j)
          | Error _ -> ())
  | `Store (rel, _) ->
      (* The saved store with this one file replaced by [bytes]. *)
      let dir = temp_dir "untrusted_store" in
      Unix.mkdir dir 0o755;
      Unix.mkdir (Filename.concat dir "corpus") 0o755;
      Array.iter
        (function
          | `Store (f, text) ->
              Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                  Out_channel.output_string oc (if String.equal f rel then bytes else text))
          | `Artifact _ | `Frame _ -> ())
        (Lazy.force untrusted_docs);
      ignore (Fleet.Store.open_store ~dir ~target:store_target ~budget:50)

let doc_text = function `Artifact s | `Frame s | `Store (_, s) -> s

let mutate text (cut, edits) =
  let b = Bytes.of_string (String.sub text 0 (min cut (String.length text))) in
  List.iter
    (fun (pos, c) -> if Bytes.length b > 0 then Bytes.set b (pos mod Bytes.length b) c)
    edits;
  Bytes.to_string b

(* Structure-aware mutation for the JSON documents: replace the node at
   preorder index [pos] (modulo the node count) with a value of another
   shape, or drop it from its parent.  The result stays well-formed JSON,
   so it reaches the decoders' field handling, which random bytes rarely
   get past the parser to do. *)
let mutate_tree text edits =
  let shapes = [| J.Null; J.Bool true; J.Int (-1); J.Float 0.5; J.String "x"; J.List []; J.Obj [] |] in
  let rec size = function
    | J.Obj fs -> List.fold_left (fun n (_, v) -> n + size v) 1 fs
    | J.List l -> List.fold_left (fun n v -> n + size v) 1 l
    | _ -> 1
  in
  let edit j (pos, c) =
    let target = pos mod size j in
    let next = ref 0 in
    (* [None] drops the node from its parent. *)
    let rec go j =
      let idx = !next in
      incr next;
      if idx = target then
        let k = Char.code c mod (Array.length shapes + 1) in
        if k = Array.length shapes then None else Some shapes.(k)
      else
        match j with
        | J.Obj fs -> Some (J.Obj (List.filter_map (fun (f, v) -> Option.map (fun v -> (f, v)) (go v)) fs))
        | J.List l -> Some (J.List (List.filter_map go l))
        | v -> Some v
    in
    Option.value (go j) ~default:J.Null
  in
  match J.of_string text with
  | Error e -> Alcotest.fail ("pristine document does not parse: " ^ e)
  | Ok j -> J.to_string ~minify:true (List.fold_left edit j edits)

let json_byte =
  QCheck.Gen.(
    oneof
      [
        char;
        oneofl [ '"'; '\\'; 'u'; 'd'; 'D'; '8'; '{'; '}'; '['; ']'; ','; ':'; '0'; '9'; '-'; 'e'; '.' ];
      ])

let prop_untrusted_never_raises =
  QCheck.Test.make ~name:"untrusted bytes: truncated/mutated artifacts and frames never raise"
    ~count:1600
    QCheck.(
      make
        Gen.(
          quad small_nat (int_bound 1_000_000)
            (list_size (int_range 0 4) (pair (int_bound 1_000_000) json_byte))
            bool))
    (fun (i, cut, edits, tree) ->
      let docs = Lazy.force untrusted_docs in
      let doc = docs.(i mod Array.length docs) in
      let text = doc_text doc in
      let cut = if edits = [] then cut mod (String.length text + 1) else String.length text - (cut mod 8) in
      let bytes =
        match doc with
        | (`Artifact _ | `Store _) when tree && edits <> [] -> mutate_tree text edits
        | _ -> mutate text (cut, edits)
      in
      match decode_untrusted doc bytes with
      | () -> true
      | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

(* Every prefix of every frame, exhaustively. *)
let test_frame_truncations () =
  Array.iter
    (fun doc ->
      match doc with
      | `Artifact _ | `Store _ -> ()
      | `Frame text ->
          for cut = 0 to String.length text do
            match decode_untrusted doc (String.sub text 0 cut) with
            | () -> ()
            | exception e ->
                Alcotest.failf "frame prefix of %d bytes raised %s" cut (Printexc.to_string e)
          done)
    (Lazy.force untrusted_docs)

let suite =
  [
    Alcotest.test_case "fingerprint goldens (store format)" `Quick test_fingerprint_golden;
    Alcotest.test_case "fingerprint depends only on content" `Quick test_fingerprint_content_only;
    QCheck_alcotest.to_alcotest prop_fingerprint_deterministic;
    Alcotest.test_case "corpus: dedup absorbs pairs" `Quick test_corpus_dedup_absorbs;
    Alcotest.test_case "corpus: favored cover + tombstones" `Quick test_corpus_cull_cover;
    Alcotest.test_case "corpus: lease rotates favored" `Quick test_corpus_lease_rotates;
    Alcotest.test_case "wire: codecs round-trip" `Quick test_wire_codecs;
    Alcotest.test_case "wire: framing over a socketpair" `Quick test_wire_framing;
    Alcotest.test_case "store: reload after kill" `Quick test_store_reload;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    QCheck_alcotest.to_alcotest prop_merge_order_independent;
    Alcotest.test_case "merge: origins, offsets, replay" `Quick test_merge_origins_replayable;
    Alcotest.test_case "coordinator/worker end-to-end" `Quick test_coordinator_worker_session;
    Alcotest.test_case "coordinator: protocol hygiene" `Quick test_protocol_hygiene;
    Alcotest.test_case "coordinator: bitmap-size mismatch" `Quick test_bitmap_size_mismatch;
    Alcotest.test_case "coordinator: adaptive lease sizing" `Quick test_lease_size;
    QCheck_alcotest.to_alcotest prop_untrusted_never_raises;
    Alcotest.test_case "untrusted bytes: every frame prefix" `Quick test_frame_truncations;
  ]
