(* The coordinator's durable on-disk state.

   Everything a restarted coordinator needs lives in the store directory:
   the budget ledger (meta.json), the aggregate coverage delta
   (coverage.json), the deduplicated bug sightings (bugs.json), and one
   file per unique corpus seed (corpus/<fingerprint>.json).  Mutations
   persist with write-to-temp + fsync + rename before the worker gets
   its ack, so killing the coordinator at any instant — including an OS
   crash — loses at most frames that were never acknowledged — a worker whose delta was acked is durably merged.

   Seed identity is Seed.fingerprint (a content hash over rendered ops),
   so the same seed re-contributed by two workers, or re-loaded after a
   restart, lands on one corpus file.  Coverage identity is site names
   (Hub's delta codec), so the aggregate merges correctly across worker
   processes with different site-id layouts. *)

module J = Obs.Json
module Hub = Pmrace.Hub
module Seed = Pmrace.Seed
module Corpus_sched = Pmrace.Corpus_sched

type bug_entry = {
  be_kind : string;
  be_site : string;
  be_read_sites : string list;
  be_members : int;
  be_origin : string;
  be_first_campaign : int option;
}

type t = {
  s_dir : string;
  s_target : string;
  mutable s_budget_total : int;
  mutable s_budget_used : int;
  mutable s_clients : int; (* worker indices handed out, across restarts *)
  s_corpus : Corpus_sched.t;
  s_agg : Hub.delta; (* fleet-wide achieved coverage *)
  mutable s_bugs : bug_entry list;
}

let dir t = t.s_dir
let target t = t.s_target
let budget_total t = t.s_budget_total
let budget_used t = t.s_budget_used
let corpus t = t.s_corpus
let coverage t = t.s_agg
let budget_remaining t = max 0 (t.s_budget_total - t.s_budget_used)

let bugs t =
  List.sort (fun a b -> compare (a.be_kind, a.be_site) (b.be_kind, b.be_site)) t.s_bugs

(* ------------------------------------------------------------------ *)
(* Files *)

let meta_path t = Filename.concat t.s_dir "meta.json"
let coverage_path t = Filename.concat t.s_dir "coverage.json"
let bugs_path t = Filename.concat t.s_dir "bugs.json"
let corpus_dir t = Filename.concat t.s_dir "corpus"
let fp_name fp = Printf.sprintf "%016Lx.json" fp

(* Atomic, durable persist: write-to-temp, fsync, rename, fsync the
   directory.  A reader (or a restart) sees the old file or the new
   file, never a torn write — and because the data hits stable storage
   before the rename and the rename before the ack, an acknowledged
   mutation survives an OS crash or power loss, not just SIGKILL. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

let write_file path codec v =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let payload =
        Bytes.of_string (Obs.Json.to_string ~minify:true (Obs.Codec.encode codec v) ^ "\n")
      in
      let len = Bytes.length payload in
      let rec go off =
        if off < len then begin
          let n =
            try Unix.write fd payload off (len - off)
            with Unix.Unix_error (Unix.EINTR, _, _) -> 0
          in
          go (off + n)
        end
      in
      go 0;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let ( let* ) = Result.bind

(* Read and decode one store file; errors name the file. *)
let read_file path codec =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
      Result.map_error (Printf.sprintf "store: %s: %s" path)
        (Result.bind (J.of_string text) (Obs.Codec.decode codec))

(* ------------------------------------------------------------------ *)
(* File codecs *)

type meta = { m_target : string; m_budget_total : int; m_budget_used : int; m_clients : int }

(* The stored total is informational: the caller's budget replaces it on
   open, so a file without one still loads. *)
let meta_codec =
  Obs.Codec.(
    obj
      (record (fun m_target m_budget_total m_budget_used m_clients ->
           { m_target; m_budget_total; m_budget_used; m_clients })
      |+ field "target" string (fun m -> m.m_target)
      |+ field ~default:0 "budget_total" int (fun m -> m.m_budget_total)
      |+ field "budget_used" int (fun m -> m.m_budget_used)
      |+ field "clients" int (fun m -> m.m_clients)))

let bugs_codec =
  Obs.Codec.(
    list
      (obj
         (record (fun { Pmrace.Artifact.kind; site; read_sites; members } be_origin be_first_campaign ->
              {
                be_kind = kind;
                be_site = site;
                be_read_sites = read_sites;
                be_members = members;
                be_origin;
                be_first_campaign;
              })
         |+ inline Pmrace.Artifact.sighting (fun b ->
                { kind = b.be_kind; site = b.be_site; read_sites = b.be_read_sites; members = b.be_members })
         |+ field "origin" string (fun b -> b.be_origin)
         |+ opt "first_campaign" int (fun b -> b.be_first_campaign))))

(* One corpus file: (seed, credited pairs, insertion sequence number). *)
let corpus_codec =
  Obs.Codec.(
    obj
      (record (fun seed pairs added -> (seed, pairs, added))
      |+ field "seed" Seed.codec (fun (s, _, _) -> s)
      |+ field "pairs" (list Pmrace.Alias_cov.site_pair) (fun (_, p, _) -> p)
      |+ field "added" int (fun (_, _, a) -> a)))

(* ------------------------------------------------------------------ *)
(* Persist *)

let save_meta t =
  write_file (meta_path t) meta_codec
    {
      m_target = t.s_target;
      m_budget_total = t.s_budget_total;
      m_budget_used = t.s_budget_used;
      m_clients = t.s_clients;
    }

let save_coverage t = write_file (coverage_path t) Hub.delta_codec t.s_agg
let save_bugs t = write_file (bugs_path t) bugs_codec (bugs t)

let save_corpus_entry t (e : Corpus_sched.entry) =
  write_file
    (Filename.concat (corpus_dir t) (fp_name e.e_fp))
    corpus_codec (e.e_seed, e.e_pairs, e.e_added)

(* ------------------------------------------------------------------ *)
(* Load *)

let load_meta t =
  let* m = read_file (meta_path t) meta_codec in
  if not (String.equal m.m_target t.s_target) then
    Error (Printf.sprintf "store %s holds target %S, not %S" t.s_dir m.m_target t.s_target)
  else begin
    t.s_budget_used <- m.m_budget_used;
    t.s_clients <- m.m_clients;
    Ok ()
  end

let load_coverage t =
  if not (Sys.file_exists (coverage_path t)) then Ok ()
  else
    let* d = read_file (coverage_path t) Hub.delta_codec in
    Result.map_error
      (Printf.sprintf "store: %s: %s" (coverage_path t))
      (Hub.merge_delta_into ~src:d ~dst:t.s_agg)

let load_bugs t =
  if not (Sys.file_exists (bugs_path t)) then Ok ()
  else
    let* entries = read_file (bugs_path t) bugs_codec in
    t.s_bugs <- entries;
    Ok ()

let load_corpus t =
  let cdir = corpus_dir t in
  if not (Sys.file_exists cdir) then Ok ()
  else begin
    let files =
      Sys.readdir cdir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
    in
    let* entries =
      List.fold_left
        (fun acc f ->
          let* acc = acc in
          let* e = read_file (Filename.concat cdir f) corpus_codec in
          Ok (e :: acc))
        (Ok []) files
    in
    (* Oldest first (ties in file order), so reload preserves the age axis
       and the insertion sequence resumes past the highest stored value. *)
    List.iter
      (fun (seed, pairs, added) -> ignore (Corpus_sched.add t.s_corpus ~pairs ~added seed))
      (List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) (List.rev entries));
    Ok ()
  end

let open_store ~dir ~target ~budget =
  let t =
    {
      s_dir = dir;
      s_target = target;
      s_budget_total = budget;
      s_budget_used = 0;
      s_clients = 0;
      s_corpus = Corpus_sched.create ();
      s_agg = Hub.fresh_delta ();
      s_bugs = [];
    }
  in
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if not (Sys.file_exists (corpus_dir t)) then Unix.mkdir (corpus_dir t) 0o755;
    if Sys.file_exists (meta_path t) then begin
      let* () = load_meta t in
      let* () = load_coverage t in
      let* () = load_bugs t in
      let* () = load_corpus t in
      (* The caller's budget is the new total (a restart may extend the
         campaign), but the used count survives. *)
      t.s_budget_total <- budget;
      save_meta t;
      Ok t
    end
    else begin
      save_meta t;
      Ok t
    end
  with
  | Unix.Unix_error (e, _, p) -> Error (Printf.sprintf "store: %s: %s" p (Unix.error_message e))
  | Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Mutations (persist before the caller acks the worker) *)

let next_widx t =
  let w = t.s_clients in
  t.s_clients <- w + 1;
  save_meta t;
  w

let record_campaigns t n =
  if n > 0 then begin
    t.s_budget_used <- t.s_budget_used + n;
    save_meta t
  end

let m_merge = lazy (Obs.Metrics.histogram "fleet_delta_merge_seconds")

let merge_delta t d =
  Obs.Metrics.time (Lazy.force m_merge) @@ fun () ->
  let* () = Hub.merge_delta_into ~src:d ~dst:t.s_agg in
  Ok (save_coverage t)

let add_seed t ?(pairs = []) seed =
  match Corpus_sched.add t.s_corpus ~pairs seed with
  | Some e ->
      save_corpus_entry t e;
      true
  | None ->
      (* Duplicate content: the existing entry absorbed the pair credit;
         persist it if the credit changed anything. *)
      if pairs <> [] then
        Option.iter (save_corpus_entry t) (Corpus_sched.find t.s_corpus (Seed.fingerprint seed));
      false

let credit_seed t seed pairs =
  let fp = Seed.fingerprint seed in
  Corpus_sched.credit_pairs t.s_corpus fp pairs;
  Option.iter (save_corpus_entry t) (Corpus_sched.find t.s_corpus fp)

let record_bug t ~kind ~site ~read_sites ~members ~origin ~first_campaign =
  let fresh = not (List.exists (fun b -> b.be_kind = kind && b.be_site = site) t.s_bugs) in
  (if fresh then
     t.s_bugs <-
       {
         be_kind = kind;
         be_site = site;
         be_read_sites = List.sort_uniq compare read_sites;
         be_members = members;
         be_origin = origin;
         be_first_campaign = first_campaign;
       }
       :: t.s_bugs
   else
     t.s_bugs <-
       List.map
         (fun b ->
           if b.be_kind = kind && b.be_site = site then
             {
               b with
               be_members = b.be_members + members;
               be_read_sites = List.sort_uniq compare (read_sites @ b.be_read_sites);
             }
           else b)
         t.s_bugs);
  save_bugs t;
  fresh
