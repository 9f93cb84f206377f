(* Detailed bug reports (§4.1 step 6): for each inconsistency that survives
   post-failure validation, render the sites involved (our analogue of the
   paper's stack traces), the validation verdict, and the exact inputs —
   operation sequence, scheduler seed, interleaving policy — that replay
   the buggy execution deterministically. *)

module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates
module Instr = Runtime.Instr

let pp_ops ppf (seed : Seed.t) =
  Array.iteri
    (fun ti ops ->
      Fmt.pf ppf "    thread %d: %a@." ti Fmt.(array ~sep:(any "; ") Seed.pp_op) ops)
    (Seed.threads seed)

let pp_verdict_line ppf = function
  | Some (Post_failure.Bug { recovery_hang = true; image_index = 0 }) ->
      Fmt.pf ppf "BUG — the recovery itself hangs on the crash state"
  | Some (Post_failure.Bug { recovery_hang = true; image_index = i }) ->
      Fmt.pf ppf "BUG — the recovery itself hangs on enumerated crash image #%d" i
  | Some (Post_failure.Bug { recovery_hang = false; image_index = 0 }) ->
      Fmt.pf ppf "BUG — not fixed by the immediate recovery"
  | Some (Post_failure.Bug { recovery_hang = false; image_index = i }) ->
      Fmt.pf ppf "BUG — not fixed, reproduced on enumerated crash image #%d" i
  | Some Post_failure.Validated_fp -> Fmt.pf ppf "false positive — fixed during recovery"
  | Some Post_failure.Whitelisted_fp -> Fmt.pf ppf "false positive — whitelisted benign read"
  | None -> Fmt.pf ppf "unvalidated"

let pp_provenance ppf (session : Fuzzer.session) campaign =
  match Hashtbl.find_opt session.Fuzzer.provenance campaign with
  | None -> Fmt.pf ppf "  (no provenance recorded)@."
  | Some p ->
      Fmt.pf ppf "  reproduce with : scheduler seed %d, %s@." p.Fuzzer.p_sched_seed
        p.Fuzzer.p_policy;
      Fmt.pf ppf "  program input  :@.%a" pp_ops p.Fuzzer.p_seed

let pp_subject ppf = function
  | Report.Inconsistency inc ->
      let c = inc.Checkers.source in
      Fmt.pf ppf "%a Inconsistency@." Candidates.pp_kind c.Candidates.kind;
      Fmt.pf ppf "  non-persisted write : %s (thread %d)@." (Instr.name c.write_instr)
        c.Candidates.write_tid;
      Fmt.pf ppf "  racy read           : %s (thread %d)@." (Instr.name c.read_instr)
        c.Candidates.read_tid;
      Fmt.pf ppf "  durable side effect : %s%s%s@."
        (Instr.name inc.Checkers.eff_instr)
        (if inc.Checkers.addr_flow then " [address flow]" else " [value flow]")
        (if inc.Checkers.external_effect then " [external]"
         else Printf.sprintf ", PM word %d" inc.Checkers.eff_addr);
      Fmt.pf ppf "  crash state        : %s@."
        (match inc.Checkers.crash with
        | Some _ -> "captured at the moment the side effect persisted"
        | None -> "not captured")
  | Report.Sync ev ->
      Fmt.pf ppf "PM Synchronization Inconsistency@.";
      Fmt.pf ppf "  annotated variable : %s (PM word %d)@." ev.Checkers.var.Checkers.sv_name
        ev.Checkers.sy_addr;
      Fmt.pf ppf "  persisted value    : %Ld (expected %Ld after recovery)@." ev.Checkers.sy_value
        ev.Checkers.var.Checkers.sv_init
  | Report.Invariant { label; site; addr; _ } ->
      Fmt.pf ppf "Persistence-Ordering Invariant Violation@.";
      Fmt.pf ppf "  invariant          : %s@." label;
      Fmt.pf ppf "  violating store    : %s (PM word %d)@." site addr

let pp_finding ppf (session : Fuzzer.session) (f : Report.finding) =
  pp_subject ppf f.subject;
  Fmt.pf ppf "  validation         : %a@." pp_verdict_line f.verdict;
  Fmt.pf ppf "  first seen         : campaign %d@." f.found_at;
  pp_provenance ppf session f.found_at

(* Persistency-lint findings from the offline analyzer, as numbered
   reports in the same style as the dynamic ones. *)
let pp_lint_finding ppf (f : Analysis.Lint.finding) =
  Fmt.pf ppf "%s [%a]@." (Analysis.Lint.kind_label f.f_kind) Analysis.Lint.pp_severity f.f_severity;
  (match f.f_write_site with
  | Some w -> Fmt.pf ppf "  store site         : %s@." (Instr.name w)
  | None -> ());
  Fmt.pf ppf "  %s : %s@."
    (match f.f_kind with
    | Analysis.Lint.Unflushed_publish | Analysis.Lint.Unfenced_publish -> "racy read         "
    | Analysis.Lint.Redundant_flush | Analysis.Lint.Double_flush -> "flush site        "
    | Analysis.Lint.Redundant_fence -> "fence site        "
    | Analysis.Lint.Cross_region_order -> "persisted site    "
    | Analysis.Lint.Unflushed_at_exit | Analysis.Lint.Missing_recovery_flush ->
        "dirty store site  ")
    (Instr.name f.f_site);
  if f.f_addr >= 0 then Fmt.pf ppf "  sample address     : PM word %d@." f.f_addr;
  Fmt.pf ppf "  occurrences        : %d (first in execution %d)@." f.f_count f.f_first_exec

let render_lint ppf (findings : Analysis.Lint.finding list) =
  if findings = [] then Fmt.pf ppf "no lint findings.@."
  else
    List.iteri
      (fun i f ->
        Fmt.pf ppf "--- finding %d ---@." (i + 1);
        pp_lint_finding ppf f)
      findings

(* All surviving bugs of a session: inconsistencies most recently
   confirmed last, then sync events. *)
let render_bugs ppf (session : Fuzzer.session) =
  let bugs =
    List.filter (fun (f : Report.finding) ->
        match f.verdict with Some (Post_failure.Bug _) -> true | _ -> false)
  in
  let report = session.Fuzzer.report in
  match
    List.stable_sort
      (fun (a : Report.finding) b -> compare a.found_at b.found_at)
      (bugs (Report.findings report))
    @ bugs (Report.sync_findings report)
  with
  | [] -> Fmt.pf ppf "no surviving bugs.@."
  | fs ->
      List.iteri
        (fun i f ->
          Fmt.pf ppf "--- report %d ---@." (i + 1);
          pp_finding ppf session f)
        fs
