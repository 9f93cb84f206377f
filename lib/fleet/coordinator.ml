(* The fleet coordinator: one select loop, one durable store, N workers.

   The coordinator is deliberately thin — it never executes a campaign.
   It hands out budget reservations (the fleet-wide analogue of
   Hub.reserve: a lease is a batch of campaign slots, claimed atomically
   against the persistent ledger), merges shipped coverage deltas into
   the aggregate (the analogue of Hub.commit's merge half), deduplicates
   bug sightings by (kind, site) exactly like the in-process report, and
   schedules the corpus with Corpus_sched (favored cover first).

   Crash semantics mirror the in-process reserve/commit split: a lease is
   in-memory (a worker that dies, or a coordinator that restarts, returns
   or forgets it), while everything acknowledged — used budget, merged
   coverage, bugs, corpus entries — is on disk before the ack frame is
   written.  Killing any process at any instant therefore loses at most
   the leases in flight. *)

type config = {
  socket_path : string;
  store_dir : string;
  target : string;
  budget : int;
  campaigns_per_lease : int;
  min_campaigns_per_lease : int;
  lease_horizon : float;
  seeds_per_lease : int;
  log : string -> unit;
}

let default_config =
  {
    socket_path = "";
    store_dir = "";
    target = "";
    budget = 300;
    campaigns_per_lease = 30;
    min_campaigns_per_lease = 5;
    lease_horizon = 1.0;
    seeds_per_lease = 4;
    log = (fun _ -> ());
  }

(* A lease sized to [lease_horizon] seconds of the client's observed
   throughput, clamped to [min, max].  An unmeasured client (rate 0 —
   nothing shipped yet) gets the full cap: overshooting the first lease
   costs at most one batch, undershooting would serialize the fleet's
   warm-up on round trips. *)
let lease_size ~rate ~horizon ~min_lease ~max_lease =
  if rate <= 0. then max_lease
  else max (min min_lease max_lease) (min max_lease (int_of_float (rate *. horizon)))

type stats = { st_campaigns : int; st_bugs : int; st_clients : int }

type client = {
  c_fd : Unix.file_descr;
  mutable c_widx : int; (* -1 until Hello *)
  mutable c_leased : int; (* outstanding leased campaigns *)
  mutable c_rate : float; (* EWMA campaigns/sec over delta acks; 0 until measured *)
  mutable c_lease_t : float; (* wall time of the last grant, for the rate sample *)
}

let m_corpus_size = lazy (Obs.Metrics.gauge "fleet_corpus_size")
let m_corpus_favored = lazy (Obs.Metrics.gauge "fleet_corpus_favored")
let m_leases = lazy (Obs.Metrics.counter "fleet_leases_total")
let m_deltas = lazy (Obs.Metrics.counter "fleet_deltas_total")

let update_corpus_gauges store =
  if Obs.Metrics.enabled () then begin
    let c = Store.corpus store in
    Obs.Metrics.set (Lazy.force m_corpus_size) (float_of_int (Pmrace.Corpus_sched.size c));
    Obs.Metrics.set (Lazy.force m_corpus_favored)
      (float_of_int (Pmrace.Corpus_sched.favored_count c))
  end

let serve ?(on_ready = fun () -> ()) cfg =
  Wire.ignore_sigpipe ();
  match Store.open_store ~dir:cfg.store_dir ~target:cfg.target ~budget:cfg.budget with
  | Error _ as e -> e
  | Ok store -> (
      let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
      let served = ref 0 in
      let outstanding () = Hashtbl.fold (fun _ c n -> n + c.c_leased) clients 0 in
      let drop c =
        (* A dead worker loses only its leased batch: the lease count
           evaporates with the client record, returning the budget. *)
        if c.c_leased > 0 then
          cfg.log
            (Printf.sprintf "fleet: worker %d gone, reclaiming %d leased campaigns" c.c_widx
               c.c_leased);
        Hashtbl.remove clients c.c_fd;
        try Unix.close c.c_fd with Unix.Unix_error _ -> ()
      in
      let reply c msg =
        try Wire.send c.c_fd (Wire.server_to_json msg)
        with Unix.Unix_error _ -> drop c
      in
      let handle c msg =
        match msg with
        | Wire.Hello { target; version } ->
            if version <> Wire.protocol_version then begin
              reply c (Wire.Err (Printf.sprintf "protocol version %d unsupported" version));
              drop c
            end
            else if not (String.equal target (Store.target store)) then begin
              reply c
                (Wire.Err
                   (Printf.sprintf "hub serves target %S, not %S" (Store.target store) target));
              drop c
            end
            else begin
              c.c_widx <- Store.next_widx store;
              incr served;
              cfg.log (Printf.sprintf "fleet: worker %d attached" c.c_widx);
              reply c
                (Wire.Hello_ack
                   {
                     widx = c.c_widx;
                     budget_total = Store.budget_total store;
                     budget_used = Store.budget_used store;
                     corpus = Pmrace.Corpus_sched.size (Store.corpus store);
                   })
            end
        | _ when c.c_widx < 0 ->
            (* The target-match check in Hello gates everything else; a
               client that skips the handshake gets nothing. *)
            reply c (Wire.Err "hello required before any other message");
            drop c
        | Wire.Lease_req { campaigns; seeds } when campaigns < 1 || seeds < 0 ->
            (* A negative grant would lower [outstanding ()] and so raise
               what every other client may lease; a negative seed count
               would lease the whole corpus. *)
            reply c
              (Wire.Err
                 (Printf.sprintf "lease request out of range: %d campaigns, %d seeds" campaigns
                    seeds));
            drop c
        | Wire.Lease_req { campaigns; seeds } ->
            let avail = Store.budget_remaining store - outstanding () in
            if avail <= 0 then
              (* Workers holding leases may still return them (by dying);
                 only when nothing is in flight is the drain final. *)
              reply c (if outstanding () > 0 then Wire.Retry else Wire.Drained)
            else begin
              let sized =
                lease_size ~rate:c.c_rate ~horizon:cfg.lease_horizon
                  ~min_lease:cfg.min_campaigns_per_lease ~max_lease:cfg.campaigns_per_lease
              in
              let n = min avail (min campaigns sized) in
              c.c_leased <- c.c_leased + n;
              c.c_lease_t <- Unix.gettimeofday ();
              let corpus = Store.corpus store in
              Pmrace.Corpus_sched.cull corpus;
              update_corpus_gauges store;
              let leased = Pmrace.Corpus_sched.lease corpus (min seeds cfg.seeds_per_lease) in
              Obs.Metrics.incr (Lazy.force m_leases);
              cfg.log
                (Printf.sprintf "fleet: lease %d campaigns + %d seeds to worker %d (%d/%d used)"
                   n (List.length leased) c.c_widx (Store.budget_used store)
                   (Store.budget_total store));
              reply c (Wire.Lease { campaigns = n; seeds = leased })
            end
        | Wire.Delta { delta; campaigns; seeds } ->
            (* The ledger only ever accounts budget the coordinator
               itself granted: a buggy or duplicate-shipping worker
               cannot push budget_used past its outstanding lease. *)
            let n = min (max 0 campaigns) c.c_leased in
            if n < campaigns then
              cfg.log
                (Printf.sprintf
                   "fleet: worker %d shipped %d campaigns but holds only %d leased; clamping"
                   c.c_widx campaigns c.c_leased);
            (if n > 0 && c.c_lease_t > 0. then
               let dt = Unix.gettimeofday () -. c.c_lease_t in
               if dt > 0. then begin
                 let sample = float_of_int n /. dt in
                 c.c_rate <-
                   (if c.c_rate <= 0. then sample else (0.7 *. c.c_rate) +. (0.3 *. sample))
               end);
            (match Store.merge_delta store delta with
            | Error e ->
                (* A delta the aggregate cannot absorb: refuse it and drop
                   the sender; its lease returns to the budget. *)
                cfg.log (Printf.sprintf "fleet: worker %d sent a bad delta: %s" c.c_widx e);
                reply c (Wire.Err e);
                drop c
            | Ok () ->
                Store.record_campaigns store n;
                c.c_leased <- c.c_leased - n;
                List.iter (fun (seed, pairs) -> ignore (Store.add_seed store ~pairs seed)) seeds;
                update_corpus_gauges store;
                Obs.Metrics.incr (Lazy.force m_deltas);
                cfg.log
                  (Printf.sprintf
                     "fleet: delta from worker %d (%d campaigns, %d seeds; %d/%d used)" c.c_widx n
                     (List.length seeds) (Store.budget_used store) (Store.budget_total store));
                reply c Wire.Delta_ack)
        | Wire.Bug { kind; site; read_sites; members; first_campaign } ->
            let fresh =
              Store.record_bug store ~kind ~site ~read_sites ~members
                ~origin:(Printf.sprintf "worker-%d" c.c_widx)
                ~first_campaign
            in
            if fresh then cfg.log (Printf.sprintf "fleet: new bug %s at %s (worker %d)" kind site c.c_widx);
            reply c (Wire.Bug_ack { fresh })
        | Wire.Bye ->
            reply c Wire.Bye_ack;
            cfg.log (Printf.sprintf "fleet: worker %d detached" c.c_widx);
            drop c
      in
      (* Workers may hold a frame mid-write when we select; recv blocks
         only for the remainder of one frame, which is bounded and local
         (same machine), so a plain blocking read per readable fd keeps
         the loop single-threaded without partial-frame bookkeeping. *)
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        (try if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path with Sys_error _ -> ());
        Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
        Unix.listen listen_fd 16
      with
      | exception Unix.Unix_error (e, _, p) ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "fleet: cannot listen on %s: %s" p (Unix.error_message e))
      | () ->
          cfg.log
            (Printf.sprintf "fleet: hub on %s (budget %d/%d used, corpus %d)" cfg.socket_path
               (Store.budget_used store) (Store.budget_total store)
               (Pmrace.Corpus_sched.size (Store.corpus store)));
          on_ready ();
          let finished () = Store.budget_remaining store = 0 && Hashtbl.length clients = 0 in
          let running = ref true in
          while !running do
            if finished () then running := false
            else begin
              let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
              match Unix.select fds [] [] 0.25 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | readable, _, _ ->
                  List.iter
                    (fun fd ->
                      if fd = listen_fd then begin
                        let cfd, _ = Unix.accept listen_fd in
                        Hashtbl.replace clients cfd
                          { c_fd = cfd; c_widx = -1; c_leased = 0; c_rate = 0.; c_lease_t = 0. }
                      end
                      else
                        match Hashtbl.find_opt clients fd with
                        | None -> ()
                        | Some c -> (
                            match Wire.recv fd with
                            | Error _ -> drop c
                            | Ok j -> (
                                match Wire.client_of_json j with
                                | Error e ->
                                    reply c (Wire.Err e);
                                    drop c
                                | Ok msg -> handle c msg)))
                    readable
            end
          done;
          Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) clients;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Sys.remove cfg.socket_path with Sys_error _ -> ());
          Ok
            {
              st_campaigns = Store.budget_used store;
              st_bugs = List.length (Store.bugs store);
              st_clients = !served;
            })
