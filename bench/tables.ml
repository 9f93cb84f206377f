(* Reproductions of the paper's tables (evaluation §6). *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Candidates = Runtime.Candidates

let hr ppf = Format.fprintf ppf "%s@." (String.make 86 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: the tested systems. *)

let table1 ppf =
  Format.fprintf ppf "@.Table 1: The concurrent PM programs tested by PMRace.@.";
  hr ppf;
  Format.fprintf ppf "%-16s %-10s %-24s %s@." "Systems" "Version" "Scope" "Concurrency";
  hr ppf;
  List.iter
    (fun (name, version, scope, conc) ->
      Format.fprintf ppf "%-16s %-10s %-24s %s@." name version scope conc)
    (Workloads.Registry.table1 ());
  hr ppf

(* ------------------------------------------------------------------ *)
(* Table 2: the unique bugs found. *)

let type_name = function
  | `Inter -> "Inter"
  | `Sync -> "Sync"
  | `Intra -> "Intra"
  | `Other -> "Other"

let table2 ppf =
  Format.fprintf ppf "@.Table 2: The unique bugs found by PMRace (paper bug numbering).@.";
  hr ppf;
  Format.fprintf ppf "%-15s %-3s %-6s %-4s %-6s %-38s %s@." "Systems" "#" "Type" "New" "Found"
    "Write code -> Read code" "Consequence";
  hr ppf;
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let session = Sessions.run target in
      List.iter
        (fun ((kb : Pmrace.Target.known_bug), found) ->
          Format.fprintf ppf "%-15s %-3d %-6s %-4s %-6s %-38s %s@." target.name kb.kb_id
            (type_name kb.kb_type)
            (if kb.kb_new then "yes" else "no")
            (if found then "FOUND" else "MISS")
            (Printf.sprintf "%s -> %s"
               (Option.value ~default:"-" kb.kb_write_site)
               (Option.value ~default:"-" kb.kb_read_site))
            kb.kb_consequence)
        (Fuzzer.found_known_bugs session target))
    Workloads.Registry.all;
  hr ppf

(* ------------------------------------------------------------------ *)
(* Table 3 / Table 6: inconsistencies and false positives. *)

let table3 ppf =
  Format.fprintf ppf
    "@.Table 3/6: PM concurrency bug detection — inconsistencies and false positives.@.";
  hr ppf;
  Format.fprintf ppf "%-15s | %10s %6s %7s %7s %4s | %4s %5s %7s %4s@." "Systems" "Inter-Cand"
    "Inter" "Val-FP" "WL-FP" "Bug" "Ann" "Sync" "Val-FP" "Bug";
  hr ppf;
  let tot = Array.make 9 0 in
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let s = Sessions.run target in
      let inter_cand = Report.candidate_count s.report Candidates.Inter in
      let cs = Report.coarse_summary s.report Candidates.Inter in
      let inter = cs.Report.total in
      let fp = cs.Report.validated_fp and wl = cs.Report.whitelisted_fp in
      let known = Fuzzer.found_known_bugs s target in
      let bug_known ty =
        List.length
          (List.filter (fun ((kb : Pmrace.Target.known_bug), f) -> f && kb.kb_type = ty) known)
      in
      let sfp, _, _, _ = Report.sync_summary s.report in
      let sync = List.length (Report.sync_findings s.report) in
      let row =
        [| inter_cand; inter; fp; wl; bug_known `Inter; s.annotations; sync; sfp; bug_known `Sync |]
      in
      Array.iteri (fun i v -> tot.(i) <- tot.(i) + v) row;
      Format.fprintf ppf "%-15s | %10d %6d %7d %7d %4d | %4d %5d %7d %4d@." target.name row.(0)
        row.(1) row.(2) row.(3) row.(4) row.(5) row.(6) row.(7) row.(8))
    Workloads.Registry.all;
  hr ppf;
  Format.fprintf ppf "%-15s | %10d %6d %7d %7d %4d | %4d %5d %7d %4d@." "Total" tot.(0) tot.(1)
    tot.(2) tot.(3) tot.(4) tot.(5) tot.(6) tot.(7) tot.(8);
  hr ppf;
  Format.fprintf ppf
    "('Bug' counts seeded ground-truth bugs found; remaining validated inconsistencies@.";
  Format.fprintf ppf
    " mirror the paper's manually-triaged reports, e.g. FAST-FAIR's lazily-tolerated ones.)@."

(* ------------------------------------------------------------------ *)
(* Table 5: unique-bug summary (new | total). *)

let table5 ppf =
  Format.fprintf ppf "@.Table 5: The number of unique bugs found (new|total).@.";
  hr ppf;
  Format.fprintf ppf "%-15s %-9s %-7s %-7s %-7s %-7s %s@." "Systems" "Version" "Inter" "Sync"
    "Intra" "Other" "Total";
  hr ppf;
  let grand = Array.make 10 0 in
  List.iter
    (fun (target : Pmrace.Target.t) ->
      let s = Sessions.run target in
      let known = Fuzzer.found_known_bugs s target in
      let count ty =
        let found =
          List.filter (fun ((kb : Pmrace.Target.known_bug), f) -> f && kb.kb_type = ty) known
        in
        let nu = List.length (List.filter (fun ((kb : Pmrace.Target.known_bug), _) -> kb.kb_new) found) in
        (nu, List.length found)
      in
      let cell (nu, total) = if total = 0 then "-" else Printf.sprintf "%d|%d" nu total in
      let i', sy, ia, ot = (count `Inter, count `Sync, count `Intra, count `Other) in
      let tot = (fst i' + fst sy + fst ia + fst ot, snd i' + snd sy + snd ia + snd ot) in
      List.iteri
        (fun idx v -> grand.(idx) <- grand.(idx) + v)
        [ fst i'; snd i'; fst sy; snd sy; fst ia; snd ia; fst ot; snd ot; fst tot; snd tot ];
      Format.fprintf ppf "%-15s %-9s %-7s %-7s %-7s %-7s %s@." target.name target.version
        (cell i') (cell sy) (cell ia) (cell ot) (cell tot))
    Workloads.Registry.all;
  hr ppf;
  Format.fprintf ppf "%-15s %-9s %d|%d     %d|%d     %d|%d     %d|%d     %d|%d@." "Total" ""
    grand.(0) grand.(1) grand.(2) grand.(3) grand.(4) grand.(5) grand.(6) grand.(7) grand.(8)
    grand.(9);
  hr ppf

(* ------------------------------------------------------------------ *)
(* Table 4: code coverage of memcached-pmem commands, AFL++ byte mutation
   vs PMRace's operation mutator, over 100 seeds each. *)

let count_families ~commands =
  (* Execute commands against a fresh single-threaded memcached instance,
     counting process_command invocations per family. *)
  let target = Workloads.Memcached.target in
  let env = Pmrace.Engine.checkout (Pmrace.Engine.create target) in
  let ctx = Runtime.Env.ctx env ~tid:0 in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun raw ->
      let fam = Workloads.Memcached.process_command ctx raw in
      let name = Workloads.Memcached_proto.family_name fam in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    commands;
  counts

let table4 ppf =
  Format.fprintf ppf "@.Table 4: The code coverage of memcached-pmem commands (100 seeds each).@.";
  let profile = Workloads.Memcached.target.profile in
  let rng = Sched.Rng.create 1234 in
  let op_commands =
    List.init 100 (fun _ ->
        Pmrace.Seed.gen rng profile |> Pmrace.Seed.all_ops |> List.map Pmrace.Seed.render_op)
    |> List.concat
  in
  let afl_commands = List.map (fun c -> Pmrace.Mutator.afl_havoc rng c) op_commands in
  let fams = [ "Get*"; "Update*"; "incr"; "decr"; "delete"; "Error" ] in
  hr ppf;
  Format.fprintf ppf "%-8s" "Schemes";
  List.iter (fun f -> Format.fprintf ppf " %8s" f) fams;
  Format.fprintf ppf " %8s@." "Total";
  hr ppf;
  let print_row name counts =
    Format.fprintf ppf "%-8s" name;
    let total = ref 0 in
    List.iter
      (fun f ->
        let n = Option.value ~default:0 (Hashtbl.find_opt counts f) in
        if not (String.equal f "Error") then total := !total + n;
        Format.fprintf ppf " %8d" n)
      fams;
    Format.fprintf ppf " %8d@." !total
  in
  print_row "AFL++" (count_families ~commands:afl_commands);
  print_row "PMRace" (count_families ~commands:op_commands);
  hr ppf;
  Format.fprintf ppf "(Total counts commands that reached storage code, i.e. excluding Error.)@."
