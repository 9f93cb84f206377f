(* Offline persistency analyzer: site graph + alias pairs + lint +
   likely-invariant mining, stepped once per event of each execution.

   Achieved alias pairs are derived from the lint pass's
   unflushed-store-published findings: a cross-thread dirty read is
   precisely a dynamically achieved (write site, read site) alias pair.
   Because the same events feed the site graph, every achieved pair's
   writer and reader also appear in the graph's per-address writer/reader
   sets — achieved <= possible holds by construction.

   The second-generation detectors are config-gated and default off:
   [default_config] reproduces the v1 analyzer exactly (same findings,
   same report), which keeps the fuzzer's seeded pre-pass bit-identical.
   [full] enables the taxonomy lint classes and invariant mining. *)

type config = {
  taxonomy : bool;  (** PM-bug-taxonomy lint classes *)
  invariants : bool;  (** likely-invariant mining *)
  region_of : (int -> int) option;  (** pool-region classifier for cross-region lint *)
}

let default_config = { taxonomy = false; invariants = false; region_of = None }
let full = { default_config with taxonomy = true; invariants = true }

type t = {
  cfg : config;
  graph : Site_graph.t;
  lint : Lint.t;
  inv : Invariants.t option;
}

type result = {
  r_graph : Site_graph.t;
  r_pairs : Alias_pairs.t;
  r_findings : Lint.finding list;
  r_invariants : Invariants.spec list;
  r_executions : int;
}

let create ?(cfg = default_config) () =
  {
    cfg;
    graph = Site_graph.create ();
    lint = Lint.create ~taxonomy:cfg.taxonomy ?region_of:cfg.region_of ();
    inv = (if cfg.invariants then Some (Invariants.create ()) else None);
  }

let config t = t.cfg

(* Recovery runs only feed the lint pass (in recovery phase, so the
   end-of-trace residue becomes the missing-recovery-flush class).  They
   are deterministic single-thread replays, so they would only dilute the
   site graph and the invariant statistics. *)
let step t (phase : Lint.phase) ev =
  match phase with
  | `Normal ->
      Site_graph.step t.graph ev;
      Lint.step t.lint ev;
      (match t.inv with Some inv -> Invariants.step inv ev | None -> ())
  | `Recovery -> if t.cfg.taxonomy then Lint.step t.lint ev

let attach t phase env = Runtime.Env.add_listener env (step t phase)

let finish t (phase : Lint.phase) =
  match phase with
  | `Normal ->
      Site_graph.finish t.graph;
      Lint.finish t.lint `Normal;
      Option.iter Invariants.finish t.inv
  | `Recovery -> if t.cfg.taxonomy then Lint.finish t.lint `Recovery

let absorb t events =
  List.iter (step t `Normal) events;
  finish t `Normal

let result t =
  let pairs = Alias_pairs.of_site_graph t.graph in
  List.iter
    (fun (f : Lint.finding) ->
      match (f.f_kind, f.f_write_site) with
      | Lint.Unflushed_publish, Some w -> Alias_pairs.mark_achieved pairs ~write:w ~read:f.f_site
      | _ -> ())
    (Lint.findings t.lint);
  {
    r_graph = t.graph;
    r_pairs = pairs;
    r_findings = Lint.findings t.lint;
    r_invariants = (match t.inv with Some inv -> Invariants.mine inv | None -> []);
    r_executions = Site_graph.executions t.graph;
  }

let pp_report ppf r =
  Fmt.pf ppf "%a" Site_graph.pp_summary r.r_graph;
  Fmt.pf ppf "%a@." Alias_pairs.pp r.r_pairs;
  if r.r_findings = [] then Fmt.pf ppf "lint: clean — no persistency findings@."
  else begin
    Fmt.pf ppf "lint: %d finding%s (%d high, %d medium, %d low)@."
      (List.length r.r_findings)
      (if List.length r.r_findings = 1 then "" else "s")
      (List.length (List.filter (fun (f : Lint.finding) -> f.f_severity = Lint.High) r.r_findings))
      (List.length (List.filter (fun (f : Lint.finding) -> f.f_severity = Lint.Medium) r.r_findings))
      (List.length (List.filter (fun (f : Lint.finding) -> f.f_severity = Lint.Low) r.r_findings));
    (* Per-detector-class counts, in stable kind order. *)
    List.iter
      (fun kind ->
        let n =
          List.length (List.filter (fun (f : Lint.finding) -> f.f_kind = kind) r.r_findings)
        in
        if n > 0 then Fmt.pf ppf "  %-24s %d@." (Lint.kind_slug kind) n)
      Lint.all_kinds;
    List.iter (fun f -> Fmt.pf ppf "  %a@." Lint.pp_finding f) r.r_findings
  end;
  if r.r_invariants <> [] then begin
    Fmt.pf ppf "invariants: %d mined@." (List.length r.r_invariants);
    List.iter (fun s -> Fmt.pf ppf "  %a@." Invariants.pp_spec s) r.r_invariants
  end
