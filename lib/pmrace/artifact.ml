(* Versioned JSON session artifacts.

   One artifact = one fuzzing session, complete enough to (a) replay any
   campaign by index from its recorded provenance and (b) reproduce the
   report's headline numbers (coverage, timeline, unique-bug groups)
   without re-running anything.  The encoding is Obs.Json under a
   schema/version header; decoding re-registers instruction site names so
   policy specs round-trip into live campaign inputs. *)

module J = Obs.Json
module Instr = Runtime.Instr

let schema = "pmrace-session"

(* v2: adds the "lint" list, the "invariants" {mined; violations}
   section, and config.invariants.
   v3: adds the "origins" list (fleet mode: one entry per merged session
   shard, with its campaign re-index offset) and config.corpus_sched.
   v4: adds config.crash_images and per-bug "image_index" (the enumerated
   crash image the bug reproduced on, for replay).
   v5: adds config.por, the per-campaign "trace" hash in provenance
   (hex-encoded canonical Mazurkiewicz-trace hash, null when POR was
   off), and the session-level "por" pruning totals.
   v6: adds the top-level "seeds" table, each distinct provenance seed
   once; a provenance "seed" is an index into it.
   All compatible — older artifacts decode with the new fields
   empty/false/default, and their provenance seeds inline. *)
let version = 6

type bug = {
  b_kind : string;
  b_site : string;
  b_read_sites : string list;
  b_members : int;
  b_first_campaign : int option;
  b_image_index : int option;
      (* crash-image index of the earliest bug verdict; None pre-v4 *)
}

type prov_entry = {
  pr_campaign : int;
  pr_sched_seed : int;
  pr_policy : string;
  pr_seed : Seed.t;
  pr_spec : Campaign.policy_spec;
  pr_trace : int64 option;
      (* canonical trace hash of the schedule this campaign executed;
         None when POR was off or pre-v5 *)
}

type lint_entry = {
  l_kind : string;
  l_severity : string;
  l_write_site : string option;
  l_site : string;
  l_addr : int;
  l_count : int;
}

type inv_spec_entry = { ie_label : string; ie_kind : string; ie_support : int }

type inv_finding_entry = {
  ivf_label : string;
  ivf_kind : string;
  ivf_site : string;
  ivf_addr : int;
  ivf_campaign : int;
  ivf_verdict : string option;
}

(* One merged-in session shard: where its campaigns landed in the merged
   numbering ([o_offset] was added to every campaign index it
   contributed), and its own headline numbers. *)
type origin = {
  o_label : string;
  o_campaigns : int;
  o_wall_time : float;
  o_offset : int;
}

type t = {
  a_target : string;
  a_config : Fuzzer.config;
  a_campaigns : int;
  a_wall_time : float;
  a_annotations : int;
  a_worker_campaigns : int list;
  a_alias_bits : int;
  a_branch_bits : int;
  a_possible_pairs : int option;
  a_site_pairs : (string * string) list;
  a_timeline : Fuzzer.timeline_point list;
  a_bugs : bug list;
  a_hangs : (string * int) list;
  a_lint : lint_entry list; (* static pre-pass lint findings (v2) *)
  a_invariants : inv_spec_entry list; (* the mined monitor set (v2) *)
  a_inv_findings : inv_finding_entry list; (* invariant violations (v2) *)
  a_provenance : prov_entry list;
  a_origins : origin list; (* merged shards, in merge order (v3); [] = single session *)
  a_por : Hub.por_totals option; (* schedule-pruning totals (v5); None = POR off *)
  a_metrics : J.t;
}

(* ------------------------------------------------------------------ *)
(* Codecs.  Each record is declared once; fields added after v1 carry
   defaults, so an older artifact decodes with them empty, false or
   absent, and there is no per-version decoder. *)

type sighting = { kind : string; site : string; read_sites : string list; members : int }

let sighting =
  Obs.Codec.(
    record (fun kind site read_sites members -> { kind; site; read_sites; members })
    |+ field "kind" string (fun s -> s.kind)
    |+ field "site" string (fun s -> s.site)
    |+ field "read_sites" (list string) (fun s -> s.read_sites)
    |+ field "members" int (fun s -> s.members))

let bug_codec =
  Obs.Codec.(
    obj
      (record (fun { kind; site; read_sites; members } b_first_campaign b_image_index ->
           {
             b_kind = kind;
             b_site = site;
             b_read_sites = read_sites;
             b_members = members;
             b_first_campaign;
             b_image_index;
           })
      |+ inline sighting (fun b ->
             { kind = b.b_kind; site = b.b_site; read_sites = b.b_read_sites; members = b.b_members })
      |+ opt "first_campaign" int (fun b -> b.b_first_campaign)
      |+ opt "image_index" int (fun b -> b.b_image_index)))

(* int64 trace hashes as fixed-width hex strings: Obs.Json has no int64,
   and 63-bit J.Int would silently mangle the top bit. *)
let trace_hash =
  Obs.Codec.(
    conv
      (fun s ->
        match Int64.of_string_opt ("0x" ^ s) with
        | Some h -> Ok h
        | None -> Error (Printf.sprintf "bad trace hash %S" s))
      (Printf.sprintf "%016Lx") string)

let prov_codec seed =
  Obs.Codec.(
    obj
      (record (fun pr_campaign pr_sched_seed pr_policy pr_seed pr_spec pr_trace ->
           { pr_campaign; pr_sched_seed; pr_policy; pr_seed; pr_spec; pr_trace })
      |+ field "campaign" int (fun p -> p.pr_campaign)
      |+ field "sched_seed" int (fun p -> p.pr_sched_seed)
      |+ field "policy" string (fun p -> p.pr_policy)
      |+ field "seed" seed (fun p -> p.pr_seed)
      |+ field "spec" Campaign.policy_spec_codec (fun p -> p.pr_spec)
      |+ opt "trace" trace_hash (fun p -> p.pr_trace)))

let lint_codec =
  Obs.Codec.(
    obj
      (record (fun l_kind l_severity l_write_site l_site l_addr l_count ->
           { l_kind; l_severity; l_write_site; l_site; l_addr; l_count })
      |+ field "kind" string (fun l -> l.l_kind)
      |+ field "severity" string (fun l -> l.l_severity)
      |+ opt "write_site" string (fun l -> l.l_write_site)
      |+ field "site" string (fun l -> l.l_site)
      |+ field "addr" int (fun l -> l.l_addr)
      |+ field "count" int (fun l -> l.l_count)))

let inv_spec_codec =
  Obs.Codec.(
    obj
      (record (fun ie_label ie_kind ie_support -> { ie_label; ie_kind; ie_support })
      |+ field "label" string (fun e -> e.ie_label)
      |+ field "kind" string (fun e -> e.ie_kind)
      |+ field "support" int (fun e -> e.ie_support)))

let inv_finding_codec =
  Obs.Codec.(
    obj
      (record (fun ivf_label ivf_kind ivf_site ivf_addr ivf_campaign ivf_verdict ->
           { ivf_label; ivf_kind; ivf_site; ivf_addr; ivf_campaign; ivf_verdict })
      |+ field "label" string (fun f -> f.ivf_label)
      |+ field "kind" string (fun f -> f.ivf_kind)
      |+ field "site" string (fun f -> f.ivf_site)
      |+ field "addr" int (fun f -> f.ivf_addr)
      |+ field "campaign" int (fun f -> f.ivf_campaign)
      |+ opt "verdict" string (fun f -> f.ivf_verdict)))

let origin_codec =
  Obs.Codec.(
    obj
      (record (fun o_label o_campaigns o_wall_time o_offset ->
           { o_label; o_campaigns; o_wall_time; o_offset })
      |+ field "label" string (fun o -> o.o_label)
      |+ field "campaigns" int (fun o -> o.o_campaigns)
      |+ field "wall_time" float (fun o -> o.o_wall_time)
      |+ field "offset" int (fun o -> o.o_offset)))

let codec =
  let open Obs.Codec in
  let schema_tag =
    conv
      (fun s ->
        if String.equal s schema then Ok ()
        else Error (Printf.sprintf "unknown schema %S (expected %S)" s schema))
      (fun () -> schema)
      string
  in
  let version_tag =
    conv
      (fun v ->
        if v > version then
          Error (Printf.sprintf "artifact version %d is newer than this reader (%d)" v version)
        else if v < 1 then Error (Printf.sprintf "artifact version %d is not a version" v)
        else Ok ())
      (fun () -> version)
      int
  in
  let coverage =
    obj
      (record (fun alias branch possible pairs -> (alias, branch, possible, pairs))
      |+ field "alias_bits" int (fun (a, _, _, _) -> a)
      |+ field "branch_bits" int (fun (_, b, _, _) -> b)
      |+ opt "possible_pairs" int (fun (_, _, p, _) -> p)
      |+ field "site_pairs" (list Alias_cov.site_pair) (fun (_, _, _, s) -> s))
  in
  let hang =
    obj (record (fun info n -> (info, n)) |+ field "info" string fst |+ field "count" int snd)
  in
  let invariants =
    obj
      (record (fun mined violations -> (mined, violations))
      |+ field ~default:[] "mined" (list inv_spec_codec) fst
      |+ field ~default:[] "violations" (list inv_finding_codec) snd)
  in
  (* Seeds interned by content.  The fingerprint only picks the bucket;
     equal operations confirm the match, so an FNV collision never swaps
     one seed for another. *)
  tabled "seeds"
    ~hash:(fun s -> Int64.to_int (Seed.fingerprint s))
    ~equal:(fun a b -> Seed.threads a = Seed.threads b)
    Seed.codec
  @@ fun seed ->
  obj
    (record
       (fun () () a_target a_config a_campaigns a_wall_time a_annotations a_worker_campaigns
            (a_alias_bits, a_branch_bits, a_possible_pairs, a_site_pairs) a_timeline a_bugs
            a_hangs a_lint (a_invariants, a_inv_findings) a_provenance a_origins a_por a_metrics ->
         {
           a_target;
           a_config;
           a_campaigns;
           a_wall_time;
           a_annotations;
           a_worker_campaigns;
           a_alias_bits;
           a_branch_bits;
           a_possible_pairs;
           a_site_pairs;
           a_timeline;
           a_bugs;
           a_hangs;
           a_lint;
           a_invariants;
           a_inv_findings;
           a_provenance;
           a_origins;
           a_por;
           a_metrics;
         })
    |+ field "schema" schema_tag ignore
    |+ field "version" version_tag ignore
    |+ field "target" string (fun a -> a.a_target)
    |+ field "config" Fuzzer.config_codec (fun a -> a.a_config)
    |+ field "campaigns" int (fun a -> a.a_campaigns)
    |+ field "wall_time" float (fun a -> a.a_wall_time)
    |+ field "annotations" int (fun a -> a.a_annotations)
    |+ field "worker_campaigns" (list int) (fun a -> a.a_worker_campaigns)
    |+ field "coverage" coverage (fun a ->
           (a.a_alias_bits, a.a_branch_bits, a.a_possible_pairs, a.a_site_pairs))
    |+ field "timeline" (list Hub.timeline_point_codec) (fun a -> a.a_timeline)
    |+ field "bugs" (list bug_codec) (fun a -> a.a_bugs)
    |+ field "hangs" (list hang) (fun a -> a.a_hangs)
    |+ field ~default:[] "lint" (list lint_codec) (fun a -> a.a_lint)
    |+ field ~default:([], []) "invariants" invariants (fun a -> (a.a_invariants, a.a_inv_findings))
    |+ field "provenance" (list (prov_codec seed)) (fun a -> a.a_provenance)
    |+ field ~default:[] "origins" (list origin_codec) (fun a -> a.a_origins)
    |+ opt "por" Hub.por_totals_codec (fun a -> a.a_por)
    |+ field ~default:Obs.Json.Null "metrics" json (fun a -> a.a_metrics))

let to_json = Obs.Codec.encode codec
let of_json = Obs.Codec.decode codec

(* ------------------------------------------------------------------ *)
(* Session -> artifact *)

(* Kept for the benchmark harness: the group carries it. *)
let first_campaign (_ : Report.t) (g : Report.bug_group) = Some g.bg_first_campaign

let severity_string = function
  | Analysis.Lint.High -> "high"
  | Analysis.Lint.Medium -> "medium"
  | Analysis.Lint.Low -> "low"

let of_session ~(target : Target.t) ~cfg (s : Fuzzer.session) =
  let bugs =
    List.map
      (fun (g : Report.bug_group) ->
        {
          b_kind = Report.kind_slug g.bg_kind;
          b_site = g.bg_site;
          b_read_sites = g.bg_read_sites;
          b_members = g.bg_members;
          b_first_campaign = Some g.bg_first_campaign;
          b_image_index = Some g.bg_image_index;
        })
      (Report.bug_groups s.report)
  in
  let provenance =
    Hashtbl.fold
      (fun campaign (p : Fuzzer.provenance) acc ->
        {
          pr_campaign = campaign;
          pr_sched_seed = p.p_sched_seed;
          pr_policy = p.p_policy;
          pr_seed = p.p_seed;
          pr_spec = p.p_spec;
          pr_trace = p.p_trace;
        }
        :: acc)
      s.provenance []
    |> List.sort (fun a b -> compare a.pr_campaign b.pr_campaign)
  in
  {
    a_target = target.Target.name;
    a_config = cfg;
    a_campaigns = s.campaigns_run;
    a_wall_time = s.wall_time;
    a_annotations = s.annotations;
    a_worker_campaigns = Array.to_list s.worker_campaigns;
    a_alias_bits = Alias_cov.count s.alias;
    a_branch_bits = Branch_cov.count s.branch;
    a_possible_pairs = Alias_cov.possible s.alias;
    a_site_pairs =
      List.map
        (fun (w, r) -> (Instr.name (Instr.of_int w), Instr.name (Instr.of_int r)))
        (Alias_cov.site_pairs s.alias);
    a_timeline = s.timeline;
    a_bugs = bugs;
    a_hangs = Report.hangs s.report;
    a_lint =
      List.map
        (fun (f : Analysis.Lint.finding) ->
          {
            l_kind = Analysis.Lint.kind_slug f.f_kind;
            l_severity = severity_string f.f_severity;
            l_write_site = Option.map Instr.name f.f_write_site;
            l_site = Instr.name f.f_site;
            l_addr = f.f_addr;
            l_count = f.f_count;
          })
        (Report.lint_findings s.report);
    a_invariants =
      List.map
        (fun (sp : Analysis.Invariants.spec) ->
          {
            ie_label = Analysis.Invariants.label sp.inv;
            ie_kind = Analysis.Invariants.inv_kind_slug sp.inv;
            ie_support = sp.support;
          })
        (Report.invariants s.report);
    a_inv_findings =
      List.filter_map
        (fun (f : Report.finding) ->
          match f.subject with
          | Report.Invariant { label; kind; site; addr; _ } ->
              Some
                {
                  ivf_label = label;
                  ivf_kind = kind;
                  ivf_site = site;
                  ivf_addr = addr;
                  ivf_campaign = f.found_at;
                  ivf_verdict = Option.map Post_failure.verdict_slug f.verdict;
                }
          | Report.Inconsistency _ | Report.Sync _ -> None)
        (Report.invariant_findings s.report);
    a_provenance = provenance;
    a_origins = [];
    a_por = s.por;
    a_metrics = (if Obs.Metrics.enabled () then Obs.Metrics.to_json () else J.Null);
  }

let write ~path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (to_json a));
      output_char oc '\n')

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> ( match J.of_string text with Ok j -> of_json j | Error e -> Error e)

let find_provenance a campaign =
  List.find_opt (fun p -> p.pr_campaign = campaign) a.a_provenance

let bug_fingerprints a =
  List.sort compare (List.map (fun b -> (b.b_kind, b.b_site)) a.a_bugs)

(* ------------------------------------------------------------------ *)
(* Session merging (fleet mode) *)

(* How many campaign indices a shard occupies: its campaign count, or
   further if provenance/timeline reach higher (a worker killed
   mid-campaign leaves reserved-but-uncommitted indices). *)
let span a =
  let m = List.fold_left (fun m p -> max m (p.pr_campaign + 1)) a.a_campaigns a.a_provenance in
  List.fold_left (fun m (tp : Fuzzer.timeline_point) -> max m tp.tp_campaign) m a.a_timeline

let merge inputs =
  match inputs with
  | [] -> Error "merge: no artifacts"
  | (_, (first : t)) :: _ -> (
      match List.find_opt (fun (_, a) -> not (String.equal a.a_target first.a_target)) inputs with
      | Some (_, a) ->
          Error (Printf.sprintf "merge: target mismatch (%S vs %S)" a.a_target first.a_target)
      | None ->
        (* Re-index: shard [i]'s campaigns shift by the summed span of the
           shards before it, so provenance, timeline, bug first-sightings
           and invariant violations stay replayable by (merged) index. *)
        let _, shifted_rev, origins_rev =
          List.fold_left
            (fun (off, acc, origs) (label, a) ->
              let origs =
                if a.a_origins = [] then
                  {
                    o_label = label;
                    o_campaigns = a.a_campaigns;
                    o_wall_time = a.a_wall_time;
                    o_offset = off;
                  }
                  :: origs
                else
                  (* Merging a merged artifact: keep its per-shard origins,
                     re-offset into the new numbering. *)
                  List.fold_left
                    (fun origs o ->
                      {
                        o with
                        o_label = Printf.sprintf "%s/%s" label o.o_label;
                        o_offset = o.o_offset + off;
                      }
                      :: origs)
                    origs a.a_origins
              in
              (off + span a, (off, a) :: acc, origs))
            (0, [], []) inputs
        in
        let shifted = List.rev shifted_rev in
        let concat_map f = List.concat_map (fun (off, a) -> f off a) shifted in
        (* Unique-bug groups: dedup by (kind, site) — the same identity the
           in-session report uses — summing members, unioning read sites,
           keeping the earliest (re-indexed) first sighting. *)
        let bug_tbl : (string * string, bug ref) Hashtbl.t = Hashtbl.create 32 in
        List.iter
          (fun (off, a) ->
            List.iter
              (fun b ->
                let shifted_first = Option.map (fun c -> c + off) b.b_first_campaign in
                match Hashtbl.find_opt bug_tbl (b.b_kind, b.b_site) with
                | None ->
                    Hashtbl.add bug_tbl (b.b_kind, b.b_site)
                      (ref { b with b_first_campaign = shifted_first })
                | Some r ->
                    (* The image index follows the member with the earliest
                       (re-indexed) first sighting — the one replay uses. *)
                    let merged_first, merged_image =
                      match ((!r).b_first_campaign, shifted_first) with
                      | Some x, Some y ->
                          if y < x then (shifted_first, b.b_image_index)
                          else ((!r).b_first_campaign, (!r).b_image_index)
                      | (Some _ as x), None -> (x, (!r).b_image_index)
                      | None, (Some _ as y) -> (y, b.b_image_index)
                      | None, None ->
                          ( None,
                            match (!r).b_image_index with
                            | Some _ as i -> i
                            | None -> b.b_image_index )
                    in
                    r :=
                      {
                        !r with
                        b_members = (!r).b_members + b.b_members;
                        b_read_sites =
                          List.sort_uniq compare ((!r).b_read_sites @ b.b_read_sites);
                        b_first_campaign = merged_first;
                        b_image_index = merged_image;
                      })
              a.a_bugs)
          shifted;
        let bugs =
          Hashtbl.fold (fun _ r acc -> !r :: acc) bug_tbl []
          |> List.sort (fun a b -> compare (a.b_kind, a.b_site) (b.b_kind, b.b_site))
        in
        let hang_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (_, a) ->
            List.iter
              (fun (info, n) ->
                Hashtbl.replace hang_tbl info
                  (n + Option.value ~default:0 (Hashtbl.find_opt hang_tbl info)))
              a.a_hangs)
          shifted;
        let hangs =
          Hashtbl.fold (fun info n acc -> (info, n) :: acc) hang_tbl [] |> List.sort compare
        in
        (* Mined invariants: same miner over the same target, so dedup by
           (label, kind) keeping the max support seen. *)
        let inv_tbl : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (_, a) ->
            List.iter
              (fun e ->
                let k = (e.ie_label, e.ie_kind) in
                Hashtbl.replace inv_tbl k
                  (max e.ie_support (Option.value ~default:0 (Hashtbl.find_opt inv_tbl k))))
              a.a_invariants)
          shifted;
        let invariants =
          Hashtbl.fold
            (fun (ie_label, ie_kind) ie_support acc -> { ie_label; ie_kind; ie_support } :: acc)
            inv_tbl []
          |> List.sort compare
        in
        (* Invariant violations are first-sightings per label within a
           shard; across shards keep the earliest, preferring a validated
           verdict when sightings tie. *)
        let ivf_tbl : (string, inv_finding_entry) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (off, a) ->
            List.iter
              (fun f ->
                let f = { f with ivf_campaign = f.ivf_campaign + off } in
                match Hashtbl.find_opt ivf_tbl f.ivf_label with
                | None -> Hashtbl.add ivf_tbl f.ivf_label f
                | Some g when f.ivf_campaign < g.ivf_campaign ->
                    Hashtbl.replace ivf_tbl f.ivf_label
                      { f with ivf_verdict = (match f.ivf_verdict with Some _ as v -> v | None -> g.ivf_verdict) }
                | Some g when g.ivf_verdict = None && f.ivf_verdict <> None ->
                    Hashtbl.replace ivf_tbl f.ivf_label { g with ivf_verdict = f.ivf_verdict }
                | Some _ -> ())
              a.a_inv_findings)
          shifted;
        let inv_findings =
          Hashtbl.fold (fun _ f acc -> f :: acc) ivf_tbl [] |> List.sort compare
        in
        Ok
          {
            a_target = first.a_target;
            a_config = first.a_config;
            a_campaigns = List.fold_left (fun n (_, a) -> n + a.a_campaigns) 0 shifted;
            a_wall_time = List.fold_left (fun w (_, a) -> w +. a.a_wall_time) 0. shifted;
            a_annotations = List.fold_left (fun n (_, a) -> max n a.a_annotations) 0 shifted;
            a_worker_campaigns = concat_map (fun _ a -> a.a_worker_campaigns);
            (* Raw bitmap counts are per-process (hash layout), so the union
               is not recoverable from the shards; the max is a sound lower
               bound.  The named site-pair union below is exact. *)
            a_alias_bits = List.fold_left (fun n (_, a) -> max n a.a_alias_bits) 0 shifted;
            a_branch_bits = List.fold_left (fun n (_, a) -> max n a.a_branch_bits) 0 shifted;
            a_possible_pairs =
              List.fold_left
                (fun acc (_, a) ->
                  match (acc, a.a_possible_pairs) with
                  | Some x, Some y -> Some (max x y)
                  | (Some _ as x), None | None, x -> x)
                None shifted;
            a_site_pairs =
              List.sort_uniq compare (concat_map (fun _ a -> a.a_site_pairs));
            a_timeline =
              concat_map (fun off a ->
                  List.map
                    (fun (tp : Fuzzer.timeline_point) ->
                      { tp with Fuzzer.tp_campaign = tp.Fuzzer.tp_campaign + off })
                    a.a_timeline)
              |> List.sort (fun (a : Fuzzer.timeline_point) b ->
                     compare a.Fuzzer.tp_campaign b.Fuzzer.tp_campaign);
            a_bugs = bugs;
            a_hangs = hangs;
            a_lint = List.sort_uniq compare (concat_map (fun _ a -> a.a_lint));
            a_invariants = invariants;
            a_inv_findings = inv_findings;
            a_provenance =
              concat_map (fun off a ->
                  List.map (fun p -> { p with pr_campaign = p.pr_campaign + off }) a.a_provenance)
              |> List.sort (fun a b -> compare a.pr_campaign b.pr_campaign);
            a_origins = List.rev origins_rev;
            (* POR counters sum across shards.  Trace dedup is shard-local
               (see Fleet.Worker), so the summed unique count can include
               the same Mazurkiewicz class twice — an upper bound, like
               the raw bitmap counts above are a lower one. *)
            a_por =
              List.fold_left
                (fun acc (_, a) ->
                  match (acc, a.a_por) with
                  | None, x | x, None -> x
                  | Some (m : Hub.por_totals), Some (p : Hub.por_totals) ->
                      Some
                        {
                          Hub.pt_campaigns = m.pt_campaigns + p.pt_campaigns;
                          pt_pruned = m.pt_pruned + p.pt_pruned;
                          pt_forced_wakes = m.pt_forced_wakes + p.pt_forced_wakes;
                          pt_unique_traces = m.pt_unique_traces + p.pt_unique_traces;
                          pt_dup_traces = m.pt_dup_traces + p.pt_dup_traces;
                        })
                None shifted;
            a_metrics = J.Null;
          })
