(* PM alias pair coverage, branch coverage, and the shared-access queue. *)

module Alias = Pmrace.Alias_cov
module Branch = Pmrace.Branch_cov
module Queue = Pmrace.Shared_queue
module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr

let acc i d t = { Alias.a_instr = i; a_dirty = d; a_tid = t }

let test_alias_pairs () =
  let c = Alias.create () in
  Alcotest.(check bool) "new pair sets a bit" true
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 1));
  Alcotest.(check bool) "same pair again: no new bit" false
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 1));
  Alcotest.(check bool) "same tid ignored" false
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 0));
  Alcotest.(check bool) "persistency state distinguishes" true
    (Alias.observe c ~prev:(acc 1 true 0) ~cur:(acc 2 true 1));
  Alcotest.(check int) "count" 2 (Alias.count c)

let test_alias_listener () =
  let d = Pmrace.Hub.fresh_delta () in
  let c = d.Pmrace.Hub.d_alias in
  let env = Env.create ~pool_words:256 () in
  Env.add_listener env (Pmrace.Hub.recorder d ~sites:None);
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let i = Instr.site "cov:x" in
  Mem.store t0 ~instr:i (Tval.of_int 100) Tval.one;
  ignore (Mem.load t1 ~instr:i (Tval.of_int 100));
  Alcotest.(check bool) "cross-thread pair recorded" true (Alias.count c >= 1);
  let before = Alias.count c in
  ignore (Mem.load t1 ~instr:i (Tval.of_int 50));
  Alcotest.(check int) "first access to an address: no pair" before (Alias.count c)

let test_branch_cov () =
  let b = Branch.create () in
  let i1 = Instr.site "cov:b1" and i2 = Instr.site "cov:b2" in
  Alcotest.(check bool) "new" true (Branch.observe b i1);
  Alcotest.(check bool) "repeat" false (Branch.observe b i1);
  Alcotest.(check bool) "covered" true (Branch.covered b i1);
  Alcotest.(check bool) "not covered" false (Branch.covered b i2);
  Alcotest.(check int) "count" 1 (Branch.count b)

let test_shared_queue () =
  let q = Queue.create () in
  let iw = Instr.site "cov:qw" and ir = Instr.site "cov:qr" in
  (* Address 10: loaded and stored by different threads -> shared. *)
  Queue.observe_store q ~addr:10 ~instr:iw ~tid:0;
  Queue.observe_load q ~addr:10 ~instr:ir ~tid:1;
  (* Address 20: single-thread only -> not shared. *)
  Queue.observe_store q ~addr:20 ~instr:iw ~tid:0;
  Queue.observe_load q ~addr:20 ~instr:ir ~tid:0;
  (* Address 30: stored only -> not shared. *)
  Queue.observe_store q ~addr:30 ~instr:iw ~tid:0;
  Queue.observe_store q ~addr:30 ~instr:iw ~tid:1;
  match Queue.entries q with
  | [ e ] ->
      Alcotest.(check int) "shared address" 10 e.Queue.addr;
      Alcotest.(check int) "loads" 1 (List.length e.loads);
      Alcotest.(check int) "stores" 1 (List.length e.stores)
  | es -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length es))

let test_queue_priority () =
  let q = Queue.create () in
  let iw = Instr.site "cov:qw" and ir = Instr.site "cov:qr" in
  let touch addr n =
    for _ = 1 to n do
      Queue.observe_store q ~addr ~instr:iw ~tid:0;
      Queue.observe_load q ~addr ~instr:ir ~tid:1
    done
  in
  touch 10 2;
  touch 20 9;
  touch 30 5;
  let order = List.map (fun e -> e.Queue.addr) (Queue.entries q) in
  Alcotest.(check (list int)) "hot addresses first" [ 20; 30; 10 ] order

let prop_alias_deterministic =
  QCheck.Test.make ~name:"alias: same event stream, same coverage" ~count:50
    QCheck.(small_list (triple (int_bound 30) (int_bound 3) bool))
    (fun events ->
      let run () =
        let c = Alias.create () in
        let last = Hashtbl.create 8 in
        List.iter
          (fun (i, t, d) ->
            let cur = acc i d t in
            (match Hashtbl.find_opt last 0 with
            | Some prev -> ignore (Alias.observe c ~prev ~cur)
            | None -> ());
            Hashtbl.replace last 0 cur)
          events;
        Alias.count c
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "alias pair bitmap" `Quick test_alias_pairs;
    Alcotest.test_case "alias listener" `Quick test_alias_listener;
    Alcotest.test_case "branch coverage" `Quick test_branch_cov;
    Alcotest.test_case "shared queue detects sharing" `Quick test_shared_queue;
    Alcotest.test_case "shared queue priority" `Quick test_queue_priority;
    QCheck_alcotest.to_alcotest prop_alias_deterministic;
  ]
