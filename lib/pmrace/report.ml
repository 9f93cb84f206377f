(* Aggregation of findings across fuzz campaigns, and unique-bug grouping.

   The paper counts a *unique bug* as a group of inconsistencies caused by
   the same writing store instruction (for non-persisted reads) or the
   same synchronization variable type (§6.2); Table 3 counts unique
   inconsistencies before that grouping. *)

module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates
module Instr = Runtime.Instr

type subject =
  | Inconsistency of Checkers.inconsistency
  | Sync of Checkers.sync_event
  | Invariant of {
      label : string;
      kind : string; (* "order" | "commit" *)
      site : string; (* violating store's site name *)
      addr : int;
      crash : Pmem.Crash_images.state option;
      words : int list; (* source words still pending at the violation *)
    }

(* One candidate from first sighting to verdict: an inconsistency, a sync
   event, or a mined-invariant violation. *)
type finding = {
  subject : subject;
  found_at : int; (* campaign index *)
  mutable verdict : Post_failure.verdict option;
}

let kind f =
  match f.subject with
  | Inconsistency i -> (
      match i.source.Candidates.kind with Candidates.Inter -> `Inter | Candidates.Intra -> `Intra)
  | Sync _ -> `Sync
  | Invariant _ -> `Invariant

let site f =
  match f.subject with
  | Inconsistency i -> Instr.name i.source.Candidates.write_instr
  | Sync ev -> ev.var.Checkers.sv_name
  | Invariant { label; _ } -> label

let read_site f =
  match f.subject with
  | Inconsistency i -> Instr.name i.source.Candidates.read_instr
  | Sync _ -> ""
  | Invariant { site; _ } -> site

let kind_slug = function
  | `Inter -> "inter"
  | `Intra -> "intra"
  | `Sync -> "sync"
  | `Invariant -> "invariant"

let validate ctx f =
  let candidate =
    match f.subject with
    | Inconsistency i -> Post_failure.Candidate.Inconsistency i
    | Sync ev -> Post_failure.Candidate.Sync ev
    | Invariant { crash; words; _ } -> Post_failure.Candidate.Ordering { crash; eff_words = words }
  in
  let v = Post_failure.validate ctx candidate in
  f.verdict <- Some v;
  v

module Tbl = Candidates.Tbl

type t = {
  cands : unit Tbl.t; (* packed candidate keys ([Candidates.key]) *)
  findings : finding Tbl.t; (* by [Checkers.inc_key] *)
  sync_findings : (string * int64, finding) Hashtbl.t;
  hangs : (string, int) Hashtbl.t; (* hung-thread description -> occurrences *)
  inv_findings : (string, finding) Hashtbl.t; (* invariant label -> finding *)
  (* [findings] per kind, kept as they are added, so the per-commit
     timeline does not fold over every finding *)
  mutable inter_count : int;
  mutable intra_count : int;
  mutable lint : Analysis.Lint.finding list; (* static pre-pass lint findings *)
  mutable invariants : Analysis.Invariants.spec list; (* the mined monitor set *)
}

let create () =
  {
    cands = Tbl.create 64;
    findings = Tbl.create 64;
    sync_findings = Hashtbl.create 16;
    hangs = Hashtbl.create 8;
    inv_findings = Hashtbl.create 16;
    inter_count = 0;
    intra_count = 0;
    lint = [];
    invariants = [];
  }

(* First sighting wins: add [f] under [k] unless the key is known, and
   return it only when it is new. *)
let first_sighting tbl k f =
  if Hashtbl.mem tbl k then None
  else begin
    Hashtbl.add tbl k f;
    Some f
  end

(* Fold one campaign's checker results in; returns the newly discovered
   unique inconsistencies, then sync events (candidates for validation).
   [campaign] is the caller's campaign index (the §5 worker pool reserves
   indices up front, so absorb order need not match index order). *)
let absorb ~campaign t (env : Runtime.Env.t) ~hung ~hang_info =
  let ck = env.Runtime.Env.checkers in
  Candidates.iter_unique (fun k _ -> Tbl.replace t.cands k ()) (Checkers.candidates ck);
  let found subject = { subject; found_at = campaign; verdict = None } in
  let new_findings =
    List.filter_map
      (fun (inc : Checkers.inconsistency) ->
        let k = Checkers.inc_key inc.source inc.eff_instr in
        if Tbl.mem t.findings k then None
        else begin
          let f = found (Inconsistency inc) in
          Tbl.add t.findings k f;
          (match inc.source.Candidates.kind with
          | Candidates.Inter -> t.inter_count <- t.inter_count + 1
          | Candidates.Intra -> t.intra_count <- t.intra_count + 1);
          Some f
        end)
      (Checkers.inconsistencies ck)
  in
  let new_sync =
    List.filter_map
      (fun (ev : Checkers.sync_event) ->
        first_sighting t.sync_findings (ev.var.Checkers.sv_name, ev.sy_value) (found (Sync ev)))
      (Checkers.sync_events ck)
  in
  if hung then begin
    let key = hang_info in
    Hashtbl.replace t.hangs key (1 + Option.value ~default:0 (Hashtbl.find_opt t.hangs key))
  end;
  new_findings @ new_sync

(* First sighting of an invariant violation wins (by label); returns the
   finding only when it is new, so the caller validates each invariant
   once per session. *)
let record_invariant ~campaign t (h : Inv_monitor.hit) =
  first_sighting t.inv_findings h.h_label
    {
      subject =
        Invariant
          {
            label = h.h_label;
            kind = Analysis.Invariants.inv_kind_slug h.h_inv;
            site = Instr.name h.h_site;
            addr = h.h_addr;
            crash = h.h_crash;
            words = h.h_words;
          };
      found_at = campaign;
      verdict = None;
    }

let invariant_findings t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.inv_findings []
  |> List.sort (fun a b -> String.compare (site a) (site b))

let set_lint t fs = t.lint <- fs
let lint_findings t = t.lint
let set_invariants t specs = t.invariants <- specs
let invariants t = t.invariants
(* Listing order: by campaign of first sighting, then by key. *)
let findings t =
  Tbl.fold (fun k f acc -> ((f.found_at, k), f) :: acc) t.findings []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let sync_findings t = Hashtbl.fold (fun _ f acc -> f :: acc) t.sync_findings []
let hangs t = Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.hangs []

let candidate_count t kind =
  Tbl.fold (fun k () n -> if Candidates.key_kind k = kind then n + 1 else n) t.cands 0

let candidate_pairs t =
  let name id = Instr.name (Instr.of_int id) in
  Tbl.fold (fun k () acc -> k :: acc) t.cands []
  |> List.sort Int.compare
  |> List.map (fun k ->
         let w, r = Candidates.key_pair k in
         (name w, name r, Candidates.key_kind k))

let of_candidates_kind = function Candidates.Inter -> `Inter | Candidates.Intra -> `Intra

let inconsistency_count t = function
  | Candidates.Inter -> t.inter_count
  | Candidates.Intra -> t.intra_count

let count_verdicts fs =
  List.fold_left
    (fun (fp, wl, bug, pending) f ->
      match f.verdict with
      | Some Post_failure.Validated_fp -> (fp + 1, wl, bug, pending)
      | Some Post_failure.Whitelisted_fp -> (fp, wl + 1, bug, pending)
      | Some (Post_failure.Bug _) -> (fp, wl, bug + 1, pending)
      | None -> (fp, wl, bug, pending + 1))
    (0, 0, 0, 0) fs

let verdict_summary t ck =
  let k = of_candidates_kind ck in
  count_verdicts (List.filter (fun f -> kind f = k) (findings t))

(* Table-3 style accounting: one row per (write site, read site) pair —
   the same grouping as candidates, so an inconsistency count can never
   exceed its candidate count.  A pair's verdict is its worst finding:
   Bug > Whitelisted > Validated > pending. *)
type coarse_summary = { total : int; validated_fp : int; whitelisted_fp : int; bugs : int; pending : int }

let coarse_summary t ck =
  let k = of_candidates_kind ck in
  let tbl : (string * string, Post_failure.verdict option) Hashtbl.t = Hashtbl.create 16 in
  let rank = function
    | Some (Post_failure.Bug _) -> 3
    | Some Post_failure.Whitelisted_fp -> 2
    | Some Post_failure.Validated_fp -> 1
    | None -> 0
  in
  List.iter
    (fun f ->
      if kind f = k then begin
        let key = (site f, read_site f) in
        match Hashtbl.find_opt tbl key with
        | Some v when rank v >= rank f.verdict -> ()
        | _ -> Hashtbl.replace tbl key f.verdict
      end)
    (findings t);
  Hashtbl.fold
    (fun _ v acc ->
      match v with
      | Some (Post_failure.Bug _) -> { acc with total = acc.total + 1; bugs = acc.bugs + 1 }
      | Some Post_failure.Whitelisted_fp ->
          { acc with total = acc.total + 1; whitelisted_fp = acc.whitelisted_fp + 1 }
      | Some Post_failure.Validated_fp ->
          { acc with total = acc.total + 1; validated_fp = acc.validated_fp + 1 }
      | None -> { acc with total = acc.total + 1; pending = acc.pending + 1 })
    tbl
    { total = 0; validated_fp = 0; whitelisted_fp = 0; bugs = 0; pending = 0 }

let sync_summary t = count_verdicts (sync_findings t)

(* Unique-bug grouping: inconsistencies that survived validation, grouped
   by (kind, writing store site); sync bugs grouped by variable name. *)
type bug_group = {
  bg_kind : [ `Inter | `Intra | `Sync ];
  bg_site : string; (* write site, or sync variable name *)
  bg_read_sites : string list;
  bg_members : int; (* bug-verdict members *)
  bg_first_campaign : int; (* earliest sighting of any member, whatever its verdict *)
  bg_image_index : int; (* crash image of the earliest bug-verdict member *)
}

(* A group under construction: its bug-verdict members' read sites and
   count, and the (campaign, image index) of the earliest of them — ties
   go to the first in report order. *)
type acc = { reads : string list; members : int; bug_at : int; image : int }

(* One pass over inconsistencies, then sync events.  [first] tracks every
   member's sighting apart from [tbl], so [tbl] only ever sees bug-verdict
   members: its fold order decides the order of groups sharing a site,
   which artifacts and reports print. *)
let bug_groups t =
  let tbl : (string * [ `Inter | `Intra | `Sync ], acc) Hashtbl.t = Hashtbl.create 16 in
  let first : (string * [ `Inter | `Intra | `Sync ], int) Hashtbl.t = Hashtbl.create 16 in
  let group f =
    match kind f with
    | `Invariant -> ()
    | (`Inter | `Intra | `Sync) as k -> (
        let key = (site f, k) in
        (match Hashtbl.find_opt first key with
        | Some c when c <= f.found_at -> ()
        | Some _ | None -> Hashtbl.replace first key f.found_at);
        match f.verdict with
        | Some (Post_failure.Bug { image_index; _ }) ->
            let g =
              match Hashtbl.find_opt tbl key with
              | None -> { reads = []; members = 0; bug_at = f.found_at; image = image_index }
              | Some g when f.found_at < g.bug_at ->
                  { g with bug_at = f.found_at; image = image_index }
              | Some g -> g
            in
            let read = read_site f in
            let reads = if k = `Sync || List.mem read g.reads then g.reads else read :: g.reads in
            Hashtbl.replace tbl key { g with reads; members = g.members + 1 }
        | Some Post_failure.Validated_fp | Some Post_failure.Whitelisted_fp | None -> ())
  in
  List.iter group (findings t @ sync_findings t);
  Hashtbl.fold
    (fun ((site, kind) as key) g acc ->
      {
        bg_kind = kind;
        bg_site = site;
        bg_read_sites = List.sort String.compare g.reads;
        bg_members = g.members;
        bg_first_campaign = Hashtbl.find first key;
        bg_image_index = g.image;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.bg_site b.bg_site)

(* Match bug groups against a target's seeded ground truth. *)
let match_known (target : Target.t) groups =
  List.map
    (fun (kb : Target.known_bug) ->
      let found =
        List.exists
          (fun g ->
            match (kb.kb_type, g.bg_kind) with
            | `Inter, `Inter | `Intra, `Intra ->
                Some g.bg_site = kb.kb_write_site
            | `Sync, `Sync -> Some g.bg_site = kb.kb_write_site
            | _ -> false)
          groups
      in
      (kb, found))
    target.Target.known_bugs

let pp_finding ppf f =
  (match f.subject with
  | Inconsistency i -> Checkers.pp_inconsistency ppf i
  | Sync ev -> Checkers.pp_sync_event ppf ev
  | Invariant { label; site; _ } -> Fmt.pf ppf "invariant %s violated at %s" label site);
  Fmt.pf ppf " found@%d %a" f.found_at
    Fmt.(option ~none:(any "unvalidated") Post_failure.pp_verdict)
    f.verdict

let pp_bug_group ppf g =
  let kind = match g.bg_kind with `Inter -> "Inter" | `Intra -> "Intra" | `Sync -> "Sync" in
  Fmt.pf ppf "[%s] write=%s reads=[%a] (%d inconsistencies)" kind g.bg_site
    Fmt.(list ~sep:comma string)
    g.bg_read_sites g.bg_members
