(* Persistency lint pass: Lifecycle observations -> deduplicated,
   severity-ranked findings.

   The original four lifecycle rules always run; the PM-bug-taxonomy
   classes (double-flush, cross-region ordering, end-of-trace residue,
   missing recovery-path flush) are gated behind [taxonomy] so the
   default pass stays byte-compatible with the v1 analyzer (and the
   fuzzer's seeded pre-pass stays bit-identical). *)

module Instr = Runtime.Instr

type severity = High | Medium | Low

type kind =
  | Unflushed_publish
  | Unfenced_publish
  | Redundant_flush
  | Redundant_fence
  | Double_flush
  | Cross_region_order
  | Unflushed_at_exit
  | Missing_recovery_flush

type phase = [ `Normal | `Recovery ]

type finding = {
  f_kind : kind;
  f_severity : severity;
  f_write_site : Instr.t option;
  f_site : Instr.t;
  mutable f_addr : int;
  f_first_exec : int;
  mutable f_count : int;
}

type key = kind * Instr.t option * Instr.t

type t = {
  fsm : Lifecycle.t;
  uniq : (key, finding) Hashtbl.t;
  taxonomy : bool;
  mutable execs : int; (* executions finished; the current one is [execs + 1] *)
}

let severity_of = function
  | Unflushed_publish | Missing_recovery_flush -> High
  | Unfenced_publish | Cross_region_order | Unflushed_at_exit -> Medium
  | Redundant_flush | Redundant_fence | Double_flush -> Low

let kind_label = function
  | Unflushed_publish -> "unflushed-store-published"
  | Unfenced_publish -> "flush-without-fence-before-release"
  | Redundant_flush -> "redundant CLWB"
  | Redundant_fence -> "redundant SFENCE"
  | Double_flush -> "double CLWB (no intervening store)"
  | Cross_region_order -> "cross-region durability ordering"
  | Unflushed_at_exit -> "dirty at end of execution"
  | Missing_recovery_flush -> "missing recovery-path flush"

(* Stable metric-label / JSON slugs, one per detector class. *)
let kind_slug = function
  | Unflushed_publish -> "unflushed_publish"
  | Unfenced_publish -> "unfenced_publish"
  | Redundant_flush -> "redundant_flush"
  | Redundant_fence -> "redundant_fence"
  | Double_flush -> "double_flush"
  | Cross_region_order -> "cross_region_order"
  | Unflushed_at_exit -> "unflushed_at_exit"
  | Missing_recovery_flush -> "missing_recovery_flush"

let all_kinds =
  [
    Unflushed_publish;
    Unfenced_publish;
    Redundant_flush;
    Redundant_fence;
    Double_flush;
    Cross_region_order;
    Unflushed_at_exit;
    Missing_recovery_flush;
  ]

let kind_rank k =
  let rec idx n = function
    | [] -> n
    | k' :: rest -> if k = k' then n else idx (n + 1) rest
  in
  idx 0 all_kinds

let create ?(taxonomy = false) ?region_of () =
  {
    fsm = Lifecycle.create ?region_of ();
    uniq = Hashtbl.create 32;
    taxonomy;
    execs = 0;
  }

let record t ~kind ~write_site ~site ~addr =
  let key = (kind, write_site, site) in
  match Hashtbl.find_opt t.uniq key with
  | Some f ->
      f.f_count <- f.f_count + 1;
      (* Keep the smallest sample address, so the stored exemplar does not
         depend on the order executions were linted in. *)
      if addr >= 0 && (f.f_addr < 0 || addr < f.f_addr) then f.f_addr <- addr
  | None ->
      Obs.Metrics.incr
        (Obs.Metrics.counter ~labels:[ ("class", kind_slug kind) ] "lint_findings_total");
      Hashtbl.add t.uniq key
        {
          f_kind = kind;
          f_severity = severity_of kind;
          f_write_site = write_site;
          f_site = site;
          f_addr = addr;
          f_first_exec = t.execs + 1;
          f_count = 1;
        }

let on_obs t = function
  | Lifecycle.O_dirty_read { w_site; r_site; addr; _ } ->
      record t ~kind:Unflushed_publish ~write_site:(Some w_site) ~site:r_site ~addr
  | Lifecycle.O_unfenced_read { w_site; r_site; addr; _ } ->
      record t ~kind:Unfenced_publish ~write_site:(Some w_site) ~site:r_site ~addr
  | Lifecycle.O_redundant_flush { f_site; addr } ->
      record t ~kind:Redundant_flush ~write_site:None ~site:f_site ~addr
  | Lifecycle.O_redundant_fence { site } ->
      record t ~kind:Redundant_fence ~write_site:None ~site ~addr:(-1)
  | Lifecycle.O_double_flush { f_site; prev_site; addr } ->
      if t.taxonomy then
        record t ~kind:Double_flush ~write_site:(Some prev_site) ~site:f_site ~addr
  | Lifecycle.O_cross_region_order { early_site; early_addr; late_site; _ } ->
      if t.taxonomy then
        record t ~kind:Cross_region_order ~write_site:(Some early_site) ~site:late_site
          ~addr:early_addr

let step t ev = Lifecycle.step t.fsm ~emit:(on_obs t) ev

let finish t phase =
  (* End-of-trace residue: words still dirty when the run ended.  In a
     recovery run that is the missing-recovery-path-flush class (the
     recovered state is lost at the next crash); in a normal run it is
     the milder dirty-at-exit class. *)
  if t.taxonomy then begin
    let kind =
      match phase with `Normal -> Unflushed_at_exit | `Recovery -> Missing_recovery_flush
    in
    List.iter
      (fun (addr, w_site) -> record t ~kind ~write_site:(Some w_site) ~site:w_site ~addr)
      (Lifecycle.dirty_words t.fsm)
  end;
  Lifecycle.reset t.fsm;
  t.execs <- t.execs + 1

let absorb ?(phase = `Normal) t events =
  List.iter (step t) events;
  finish t phase

let severity_rank = function High -> 0 | Medium -> 1 | Low -> 2
let sev_rank = severity_rank

let site_rank = function Some i -> Instr.to_int i | None -> -1

(* Total order over dedup keys: (severity, count desc, site, kind,
   write site).  Because no two findings share a key, the sort is a
   permutation-independent function of the finding *set* — linting the
   same executions in any order yields the same list. *)
let findings t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.uniq []
  |> List.sort (fun a b ->
         compare
           ( sev_rank a.f_severity,
             b.f_count,
             Instr.to_int a.f_site,
             kind_rank a.f_kind,
             site_rank a.f_write_site )
           ( sev_rank b.f_severity,
             a.f_count,
             Instr.to_int b.f_site,
             kind_rank b.f_kind,
             site_rank b.f_write_site ))

let count t = Hashtbl.length t.uniq

let pp_severity ppf = function
  | High -> Fmt.string ppf "HIGH"
  | Medium -> Fmt.string ppf "MEDIUM"
  | Low -> Fmt.string ppf "LOW"

let pp_finding ppf f =
  Fmt.pf ppf "[%a] %s: %a%s (%d occurrence%s%s)" pp_severity f.f_severity (kind_label f.f_kind)
    Instr.pp f.f_site
    (match f.f_write_site with
    | Some w when not (Instr.equal w f.f_site) -> Printf.sprintf " <- store at %s" (Instr.name w)
    | Some _ | None -> "")
    f.f_count
    (if f.f_count = 1 then "" else "s")
    (if f.f_addr >= 0 then Printf.sprintf ", e.g. PM word %d" f.f_addr else "")
