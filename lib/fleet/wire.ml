(* The fleet wire protocol: 4-byte big-endian length prefix, then that
   many bytes of minified Obs.Json.

   Site identity crosses the process boundary by *name*, never by raw id:
   the delta codec comes from Hub, which re-registers names via
   Runtime.Instr.site on decode; seeds, site pairs and bug sightings use
   the same codecs as session artifacts.  A
   worker and the coordinator therefore never need the same site-id
   layout — which they would not have, since each process registers sites
   in its own discovery order. *)

module J = Obs.Json

let protocol_version = 1

(* Writes to a dead peer must surface as an EPIPE [Unix.Unix_error]
   (which every call site already handles), not as a process-killing
   SIGPIPE.  Both fleet entry points call this before any socket I/O. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* Frames above this are a protocol error, not a workload: the largest
   legitimate payload (a full-coverage delta for the biggest target) is a
   few hundred KB. *)
let max_frame = 64 * 1024 * 1024

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = try Unix.write fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd buf (off + n) (len - n)
  end

(* [Error "eof"] on a clean close before any byte; short reads mid-frame
   are a protocol error.  Any other read failure (ECONNRESET from an
   abruptly killed peer, and so on) is also [Error], never an exception:
   the peer is simply gone, and the caller's drop/salvage path handles
   that. *)
let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then Error "eof" else Error "truncated frame"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let m_bytes = lazy (Obs.Metrics.counter "fleet_wire_bytes_total")

let send fd json =
  let payload = Bytes.of_string (Obs.Json.to_string ~minify:true json) in
  let len = Bytes.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  Obs.Metrics.incr ~by:(len + 4) (Lazy.force m_bytes);
  write_all fd hdr 0 4;
  write_all fd payload 0 len

let recv fd =
  match read_exact fd 4 with
  | Error _ as e -> e
  | Ok hdr -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then Error (Printf.sprintf "bad frame length %d" len)
      else
        match read_exact fd len with
        | Error _ as e -> e
        | Ok payload -> (
            Obs.Metrics.incr ~by:(len + 4) (Lazy.force m_bytes);
            match J.of_string (Bytes.to_string payload) with
            | Ok j -> Ok j
            | Error e -> Error (Printf.sprintf "bad frame payload: %s" e)))

(* ------------------------------------------------------------------ *)
(* Message codecs *)

type client_msg =
  | Hello of { target : string; version : int }
  | Lease_req of { campaigns : int; seeds : int }
  | Delta of {
      delta : Pmrace.Hub.delta;
      campaigns : int;
      seeds : (Pmrace.Seed.t * (string * string) list) list;
    }
  | Bug of {
      kind : string;
      site : string;
      read_sites : string list;
      members : int;
      first_campaign : int option;
    }
  | Bye

type server_msg =
  | Hello_ack of { widx : int; budget_total : int; budget_used : int; corpus : int }
  | Lease of { campaigns : int; seeds : Pmrace.Seed.t list }
  | Retry
  | Drained
  | Delta_ack
  | Bug_ack of { fresh : bool }
  | Bye_ack
  | Err of string

let client =
  let open Obs.Codec in
  let credited_seed =
    obj
      (record (fun seed pairs -> (seed, pairs))
      |+ field "seed" Pmrace.Seed.codec fst
      |+ field "pairs" (list Pmrace.Alias_cov.site_pair) snd)
  in
  variant "type"
    [
      case "hello"
        (record (fun target version -> (target, version))
        |+ field "target" string fst
        |+ field "version" int snd)
        (function Hello { target; version } -> Some (target, version) | _ -> None)
        (fun (target, version) -> Hello { target; version });
      case "lease_req"
        (record (fun campaigns seeds -> (campaigns, seeds))
        |+ field "campaigns" int fst
        |+ field "seeds" int snd)
        (function Lease_req { campaigns; seeds } -> Some (campaigns, seeds) | _ -> None)
        (fun (campaigns, seeds) -> Lease_req { campaigns; seeds });
      case "delta"
        (record (fun campaigns delta seeds -> (campaigns, delta, seeds))
        |+ field "campaigns" int (fun (c, _, _) -> c)
        |+ field "delta" Pmrace.Hub.delta_codec (fun (_, d, _) -> d)
        |+ field "seeds" (list credited_seed) (fun (_, _, s) -> s))
        (function Delta { delta; campaigns; seeds } -> Some (campaigns, delta, seeds) | _ -> None)
        (fun (campaigns, delta, seeds) -> Delta { delta; campaigns; seeds });
      case "bug"
        (record (fun sighting first_campaign -> (sighting, first_campaign))
        |+ inline Pmrace.Artifact.sighting fst
        |+ opt "first_campaign" int snd)
        (function
          | Bug { kind; site; read_sites; members; first_campaign } ->
              Some ({ Pmrace.Artifact.kind; site; read_sites; members }, first_campaign)
          | _ -> None)
        (fun ({ Pmrace.Artifact.kind; site; read_sites; members }, first_campaign) ->
          Bug { kind; site; read_sites; members; first_campaign });
      constant "bye" Bye;
    ]

let server =
  let open Obs.Codec in
  variant "type"
    [
      case "hello_ack"
        (record (fun widx budget_total budget_used corpus -> (widx, budget_total, budget_used, corpus))
        |+ field "widx" int (fun (w, _, _, _) -> w)
        |+ field "budget_total" int (fun (_, t, _, _) -> t)
        |+ field "budget_used" int (fun (_, _, u, _) -> u)
        |+ field "corpus" int (fun (_, _, _, c) -> c))
        (function
          | Hello_ack { widx; budget_total; budget_used; corpus } ->
              Some (widx, budget_total, budget_used, corpus)
          | _ -> None)
        (fun (widx, budget_total, budget_used, corpus) ->
          Hello_ack { widx; budget_total; budget_used; corpus });
      case "lease"
        (record (fun campaigns seeds -> (campaigns, seeds))
        |+ field "campaigns" int fst
        |+ field "seeds" (list Pmrace.Seed.codec) snd)
        (function Lease { campaigns; seeds } -> Some (campaigns, seeds) | _ -> None)
        (fun (campaigns, seeds) -> Lease { campaigns; seeds });
      constant "retry" Retry;
      constant "drained" Drained;
      constant "delta_ack" Delta_ack;
      case "bug_ack"
        (record Fun.id |+ field "fresh" bool Fun.id)
        (function Bug_ack { fresh } -> Some fresh | _ -> None)
        (fun fresh -> Bug_ack { fresh });
      constant "bye_ack" Bye_ack;
      case "error"
        (record Fun.id |+ field "msg" string Fun.id)
        (function Err msg -> Some msg | _ -> None)
        (fun msg -> Err msg);
    ]

let client_to_json = Obs.Codec.encode client
let client_of_json = Obs.Codec.decode client
let server_to_json = Obs.Codec.encode server
let server_of_json = Obs.Codec.decode server
