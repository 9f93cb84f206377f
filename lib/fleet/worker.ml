(* The fleet worker: Fuzzer.worker_loop bound to a coordinator.

   All fuzzing state is local — a private Hub with an unbounded budget
   holds the worker's own coverage, report and provenance, exactly as an
   in-process session would.  The fleet shows up only in the sink
   wrapper: reserve is gated on the current lease (shipping the
   accumulated wire delta and requesting the next lease at the
   boundary), and commit additionally folds the campaign delta into the
   wire delta and notes which seed earned new alias pairs, so the
   coordinator's corpus learns provenance-for-free.

   Socket loss is deliberately non-fatal: the worker stops fuzzing (its
   lease died with the link) but still assembles and returns its local
   session, so a shard artifact survives a coordinator crash. *)

module Fuzzer = Pmrace.Fuzzer
module Hub = Pmrace.Hub
module Seed = Pmrace.Seed
module Report = Pmrace.Report

type config = {
  connect : string;
  cfg : Fuzzer.config;
  max_local : int option;
  lease_campaigns : int;
  lease_seeds : int;
  log : string -> unit;
}

let default_config =
  {
    connect = "";
    cfg = Fuzzer.default_config;
    max_local = None;
    lease_campaigns = 30;
    lease_seeds = 4;
    log = (fun _ -> ());
  }

type outcome = { o_session : Fuzzer.session; o_widx : int; o_campaigns : int }

exception Fail of string

let m_lease_latency = lazy (Obs.Metrics.histogram "fleet_lease_latency_seconds")

let site_name id = Runtime.Instr.name (Runtime.Instr.of_int id)

(* One request/response exchange.  The wire is strictly half-duplex from
   the worker's side (it never has two requests in flight), so a plain
   blocking recv after send is the whole client state machine. *)
let rpc fd (msg : Wire.client_msg) : Wire.server_msg =
  (try Wire.send fd (Wire.client_to_json msg)
   with Unix.Unix_error (e, _, _) -> raise (Fail (Unix.error_message e)));
  match Wire.recv fd with
  | Error e -> raise (Fail e)
  | Ok j -> (
      match Wire.server_of_json j with
      | Error e -> raise (Fail e)
      | Ok (Wire.Err e) -> raise (Fail e)
      | Ok reply -> reply)

let run ?obs wcfg target =
  Wire.ignore_sigpipe ();
  let cfg = { wcfg.cfg with Fuzzer.workers = 1; max_campaigns = max_int } in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX wcfg.connect) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "fleet: cannot connect to %s: %s" wcfg.connect (Unix.error_message e))
  | () -> (
      match
        rpc fd (Wire.Hello { target = target.Pmrace.Target.name; version = Wire.protocol_version })
      with
      | exception Fail e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "fleet: handshake failed: %s" e)
      | Wire.Hello_ack { widx; budget_total; budget_used; corpus } ->
          wcfg.log
            (Printf.sprintf "fleet: attached as worker %d (budget %d/%d used, corpus %d)" widx
               budget_used budget_total corpus);
          (* The session set-up (checkpoint, pre-pass, whitelist,
             invariants) is per-process state every shard computes
             identically; its hub is this worker's local one. *)
          let setup = Fuzzer.setup target cfg in
          let hub = Fuzzer.setup_hub setup in
          (* Fleet-side state threaded through the sink. *)
          let wire = Hub.fresh_delta () in
          let unshipped = ref 0 in
          let lease_rem = ref 0 in
          let local_done = ref 0 in
          let drained = ref false in
          let dead = ref false in
          (* campaign index -> the seed it ran, so commit can attribute
             new alias pairs to a corpus entry for the coordinator. *)
          let camp_seed : (int, Seed.t) Hashtbl.t = Hashtbl.create 64 in
          let contributed : (int64, Seed.t * (string * string) list ref) Hashtbl.t =
            Hashtbl.create 16
          in
          let shipped_bugs : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
          let worker_ref : Fuzzer.worker option ref = ref None in
          let ship () =
            if !unshipped > 0 || Hashtbl.length contributed > 0 then begin
              let seeds =
                Hashtbl.fold (fun _ (s, pairs) acc -> (s, !pairs) :: acc) contributed []
              in
              match rpc fd (Wire.Delta { delta = wire; campaigns = !unshipped; seeds }) with
              | Wire.Delta_ack ->
                  Hub.reset_delta wire;
                  Hashtbl.reset contributed;
                  unshipped := 0
              | _ -> raise (Fail "unexpected reply to delta")
            end;
            (* New validated bug groups since the last ship. *)
            Report.bug_groups (Hub.report hub)
            |> List.iter (fun (g : Report.bug_group) ->
                   let kind = Report.kind_slug g.bg_kind in
                   let key = (kind, g.bg_site) in
                   if not (Hashtbl.mem shipped_bugs key) then begin
                     match
                       rpc fd
                         (Wire.Bug
                            {
                              kind;
                              site = g.bg_site;
                              read_sites = g.bg_read_sites;
                              members = g.bg_members;
                              first_campaign = Some g.bg_first_campaign;
                            })
                     with
                     | Wire.Bug_ack { fresh } ->
                         Hashtbl.replace shipped_bugs key ();
                         if fresh then
                           wcfg.log
                             (Printf.sprintf "fleet: reported new bug %s at %s" kind g.bg_site)
                     | _ -> raise (Fail "unexpected reply to bug")
                   end)
          in
          let rec request_lease () =
            let reply =
              Obs.Metrics.time (Lazy.force m_lease_latency) (fun () ->
                  rpc fd
                    (Wire.Lease_req
                       { campaigns = wcfg.lease_campaigns; seeds = wcfg.lease_seeds }))
            in
            match reply with
            | Wire.Lease { campaigns; seeds } ->
                lease_rem := campaigns;
                if seeds <> [] then
                  Option.iter (fun w -> Fuzzer.refresh_corpus w seeds) !worker_ref
            | Wire.Retry ->
                (* Budget is all leased out but not all acked: other
                   workers may die and return theirs. *)
                Unix.sleepf 0.05;
                request_lease ()
            | Wire.Drained -> drained := true
            | _ -> raise (Fail "unexpected reply to lease request")
          in
          let over_cap () =
            match wcfg.max_local with Some cap -> !local_done >= cap | None -> false
          in
          let local = Fuzzer.hub_sink hub in
          let sink =
            {
              local with
              Fuzzer.sk_budget_left = (fun () -> (not !drained) && (not !dead) && not (over_cap ()));
              sk_reserve =
                (fun prov ->
                  if !dead || over_cap () then None
                  else begin
                    if !lease_rem = 0 then begin
                      ship ();
                      request_lease ()
                    end;
                    if !drained || !lease_rem = 0 then None
                    else begin
                      decr lease_rem;
                      match local.Fuzzer.sk_reserve prov with
                      | None -> None
                      | Some c ->
                          Hashtbl.replace camp_seed c prov.Hub.p_seed;
                          Some c
                    end
                  end);
              (* POR trace dedup stays shard-local: [?trace] lands in the
                 local hub's commit, which already dedups this worker's
                 campaigns; a cross-shard dup only costs one redundant
                 validation. *)
              sk_commit =
                (fun ?trace ~campaign ~delta env ~hung ~hang_info ->
                  let c = local.Fuzzer.sk_commit ?trace ~campaign ~delta env ~hung ~hang_info in
                  (match Hub.merge_delta_into ~src:delta ~dst:wire with
                  | Ok () -> ()
                  | Error e -> raise (Fail e));
                  incr unshipped;
                  incr local_done;
                  (match (Hashtbl.find_opt camp_seed campaign, c.Hub.c_new_pairs) with
                  | Some seed, (_ :: _ as pairs) ->
                      let named =
                        List.map (fun (wr, rd) -> (site_name wr, site_name rd)) pairs
                      in
                      let fp = Seed.fingerprint seed in
                      (match Hashtbl.find_opt contributed fp with
                      | Some (_, acc) -> acc := named @ !acc
                      | None -> Hashtbl.replace contributed fp (seed, ref named))
                  | _ -> ());
                  Hashtbl.remove camp_seed campaign;
                  c);
            }
          in
          let worker = Fuzzer.create_worker ~log:wcfg.log ?obs ~sink ~widx setup in
          worker_ref := Some worker;
          (try Fuzzer.worker_loop worker
           with Fail e ->
             dead := true;
             wcfg.log (Printf.sprintf "fleet: lost coordinator (%s); salvaging local session" e));
          (* Graceful detach: flush the tail delta and say goodbye.  A
             dead socket skips this — the coordinator already reclaimed
             our lease when the connection dropped. *)
          (if not !dead then
             try
               ship ();
               match rpc fd Wire.Bye with
               | Wire.Bye_ack -> ()
               | _ -> ()
             with Fail e -> wcfg.log (Printf.sprintf "fleet: detach failed (%s)" e));
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let session =
            Fuzzer.assemble_session ~worker_campaigns:[| Fuzzer.campaigns_done worker |] setup
          in
          Ok { o_session = session; o_widx = widx; o_campaigns = !local_done }
      | _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error "fleet: unexpected handshake reply")
