(* Fleet-mode scaling: 1 vs 2 vs 4 worker *processes* against one
   coordinator, on figure1 and P-CLHT.

   Each cell forks a coordinator (durable store in a temp directory) and
   N `Fleet.Worker.run` children, waits for the budget to drain, and
   reads the resulting store for the fleet-wide unique-bug count.  The
   parent's Unix.times deltas (tms_cutime/tms_cstime accumulate reaped
   children) give total CPU seconds across the whole process tree, so
   the bugs-per-CPU-second column prices coordination overhead honestly:
   perfect scaling keeps execs per CPU-second flat while wall-clock
   execs/sec grows with N.  Writes BENCH_fleet.json (gitignored; CI
   uploads it). *)

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

type cell = {
  target : string;
  workers : int;
  budget : int;
  wall : float;
  cpu : float;
  bugs : int;
}

let temp_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmrace_bench_%s_%d" tag (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists d then rm d;
  Unix.mkdir d 0o755;
  d

let fork_child f =
  match Unix.fork () with
  | 0 ->
      (try f () with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> pid

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let run_cell (target : Pmrace.Target.t) ~workers ~budget =
  let dir = temp_dir (Printf.sprintf "%s_%d" target.Pmrace.Target.name workers) in
  let socket_path = Filename.concat dir "hub.sock" in
  let store_dir = Filename.concat dir "store" in
  let cpu0 = cpu_now () in
  let t0 = Obs.Clock.now () in
  let coord =
    fork_child (fun () ->
        let cfg =
          {
            Fleet.Coordinator.default_config with
            socket_path;
            store_dir;
            target = target.Pmrace.Target.name;
            budget;
          }
        in
        match Fleet.Coordinator.serve cfg with Ok _ -> () | Error _ -> Unix._exit 1)
  in
  let deadline = Obs.Clock.now () +. 10. in
  while (not (Sys.file_exists socket_path)) && Obs.Clock.now () < deadline do
    Unix.sleepf 0.005
  done;
  let worker_pids =
    List.init workers (fun _ ->
        fork_child (fun () ->
            let wcfg =
              {
                Fleet.Worker.default_config with
                connect = socket_path;
                cfg = Pmrace.Fuzzer.Config.make ~master_seed:5 ();
              }
            in
            match Fleet.Worker.run wcfg target with Ok _ -> () | Error _ -> Unix._exit 1))
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) (coord :: worker_pids);
  let wall = Obs.Clock.elapsed t0 in
  let cpu = cpu_now () -. cpu0 in
  let bugs =
    match Fleet.Store.open_store ~dir:store_dir ~target:target.Pmrace.Target.name ~budget with
    | Ok store -> List.length (Fleet.Store.bugs store)
    | Error _ -> 0
  in
  { target = target.Pmrace.Target.name; workers; budget; wall; cpu; bugs }

let run ppf =
  Format.fprintf ppf
    "@.Fleet mode: coordinator + N worker processes, budget split by leases.@.";
  hr ppf;
  Format.fprintf ppf "%-10s %8s %8s %8s %8s %10s %10s %6s %12s@." "target" "workers" "budget"
    "wall(s)" "cpu(s)" "execs/s" "execs/cpus" "bugs" "bugs/cpus";
  hr ppf;
  let cells =
    List.concat_map
      (fun ((target : Pmrace.Target.t), budget) ->
        List.map (fun workers -> run_cell target ~workers ~budget) [ 1; 2; 4 ])
      [ (Workloads.Figure1.target, 240); (Workloads.Pclht.target, 120) ]
  in
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s %8d %8d %8.2f %8.2f %10.0f %10.0f %6d %12.3f@." c.target
        c.workers c.budget c.wall c.cpu
        (float_of_int c.budget /. Float.max 1e-9 c.wall)
        (float_of_int c.budget /. Float.max 1e-9 c.cpu)
        c.bugs
        (float_of_int c.bugs /. Float.max 1e-9 c.cpu))
    cells;
  hr ppf;
  Format.fprintf ppf
    "(one coordinator process per cell; workers draw 30-campaign leases, ship@.";
  Format.fprintf ppf
    " deltas at lease boundaries; bug counts are fleet-wide (kind, site) uniques.)@.";
  let json =
    Obs.Json.Obj
      [
        ( "cells",
          Obs.Json.List
            (List.map
               (fun c ->
                 Obs.Json.Obj
                   [
                     ("target", Obs.Json.String c.target);
                     ("workers", Obs.Json.Int c.workers);
                     ("budget_campaigns", Obs.Json.Int c.budget);
                     ("wall_seconds", Obs.Json.Float c.wall);
                     ("cpu_seconds", Obs.Json.Float c.cpu);
                     ("execs_per_sec", Obs.Json.Float (float_of_int c.budget /. Float.max 1e-9 c.wall));
                     ( "execs_per_cpu_sec",
                       Obs.Json.Float (float_of_int c.budget /. Float.max 1e-9 c.cpu) );
                     ("unique_bugs", Obs.Json.Int c.bugs);
                     ( "bugs_per_cpu_sec",
                       Obs.Json.Float (float_of_int c.bugs /. Float.max 1e-9 c.cpu) );
                   ])
               cells) );
      ]
  in
  let oc = open_out "BENCH_fleet.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "(wrote BENCH_fleet.json)@."
