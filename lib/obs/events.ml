(* Structured events and sinks.  One mutex serialises emission across
   worker domains; the no-sink fast path never takes it. *)

type payload =
  | Session_start of { target : string; workers : int; max_campaigns : int; master_seed : int }
  | Campaign_start of {
      campaign : int;
      worker : int;
      seed_id : int;
      sched_seed : int;
      policy : string;
    }
  | Campaign_end of {
      campaign : int;
      worker : int;
      improved : bool;
      hung : bool;
      latency : float;
    }
  | New_alias_pair of { campaign : int; worker : int; write_site : string; read_site : string }
  | Candidate_found of {
      campaign : int;
      worker : int;
      kind : string;
      write_site : string;
      read_site : string;
    }
  | Validation_verdict of {
      campaign : int;
      worker : int;
      kind : string;
      site : string;
      verdict : string;
    }
  | Crash_image_bug of {
      campaign : int;
      worker : int;
      kind : string;
      site : string;
      image_index : int;
    }
  | Worker_merge of { campaign : int; worker : int; alias_bits : int; branch_bits : int }
  | Session_end of { campaigns : int; wall : float; bugs : int }

type event = { ev_time : float; ev_payload : payload }

type t = { started : float; lock : Mutex.t; mutable sinks : (event -> unit) list }

let create () = { started = Clock.now (); lock = Mutex.create (); sinks = [] }
let attach t sink = t.sinks <- sink :: t.sinks

let emit t payload =
  match t.sinks with
  | [] -> ()
  | _ ->
      let ev = { ev_time = Clock.elapsed t.started; ev_payload = payload } in
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> List.iter (fun sink -> sink ev) t.sinks)

(* ------------------------------------------------------------------ *)
(* JSON *)

let payload_name = function
  | Session_start _ -> "session_start"
  | Campaign_start _ -> "campaign_start"
  | Campaign_end _ -> "campaign_end"
  | New_alias_pair _ -> "new_alias_pair"
  | Candidate_found _ -> "candidate_found"
  | Validation_verdict _ -> "validation_verdict"
  | Crash_image_bug _ -> "crash_image_bug"
  | Worker_merge _ -> "worker_merge"
  | Session_end _ -> "session_end"

let payload_fields = function
  | Session_start { target; workers; max_campaigns; master_seed } ->
      [
        ("target", Json.String target);
        ("workers", Json.Int workers);
        ("max_campaigns", Json.Int max_campaigns);
        ("master_seed", Json.Int master_seed);
      ]
  | Campaign_start { campaign; worker; seed_id; sched_seed; policy } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("seed_id", Json.Int seed_id);
        ("sched_seed", Json.Int sched_seed);
        ("policy", Json.String policy);
      ]
  | Campaign_end { campaign; worker; improved; hung; latency } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("improved", Json.Bool improved);
        ("hung", Json.Bool hung);
        ("latency", Json.Float latency);
      ]
  | New_alias_pair { campaign; worker; write_site; read_site } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("write_site", Json.String write_site);
        ("read_site", Json.String read_site);
      ]
  | Candidate_found { campaign; worker; kind; write_site; read_site } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("kind", Json.String kind);
        ("write_site", Json.String write_site);
        ("read_site", Json.String read_site);
      ]
  | Validation_verdict { campaign; worker; kind; site; verdict } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("kind", Json.String kind);
        ("site", Json.String site);
        ("verdict", Json.String verdict);
      ]
  | Crash_image_bug { campaign; worker; kind; site; image_index } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("kind", Json.String kind);
        ("site", Json.String site);
        ("image_index", Json.Int image_index);
      ]
  | Worker_merge { campaign; worker; alias_bits; branch_bits } ->
      [
        ("campaign", Json.Int campaign);
        ("worker", Json.Int worker);
        ("alias_bits", Json.Int alias_bits);
        ("branch_bits", Json.Int branch_bits);
      ]
  | Session_end { campaigns; wall; bugs } ->
      [ ("campaigns", Json.Int campaigns); ("wall", Json.Float wall); ("bugs", Json.Int bugs) ]

let to_json ev =
  Json.Obj
    (("event", Json.String (payload_name ev.ev_payload))
    :: ("t", Json.Float ev.ev_time)
    :: payload_fields ev.ev_payload)

let attach_jsonl t oc =
  attach t (fun ev ->
      output_string oc (Json.to_string ~minify:true (to_json ev));
      output_char oc '\n';
      flush oc)
