(* Hunting the P-CLHT bugs (paper §2.3.2 and Table 2, bugs 1-5).

     dune exec examples/pclht_hunt.exe

   Runs a PM-aware fuzzing session against the P-CLHT port and then
   demonstrates bug 1's consequence end to end: a key inserted through the
   non-persisted table pointer is unreachable after crash recovery. *)

module Fuzzer = Pmrace.Fuzzer
module Report = Pmrace.Report
module Seed = Pmrace.Seed

let () =
  let target = Workloads.Pclht.target in
  Format.printf "Fuzzing %s (%s)...@." target.name target.version;
  let cfg = Fuzzer.Config.make ~max_campaigns:300 ~master_seed:5 () in
  let s = Fuzzer.run target cfg in
  Format.printf "%d campaigns in %.2fs@.@." s.campaigns_run s.wall_time;
  List.iter
    (fun ((kb : Pmrace.Target.known_bug), found) ->
      Format.printf "  [%s] %a@." (if found then "FOUND" else "MISS") Pmrace.Target.pp_known_bug kb)
    (Fuzzer.found_known_bugs s target);

  (* Replay the Figure 2/3 interleaving deterministically: drive readers
     of the table pointer (417) into the window between the unflushed swap
     (785) and its flush (786). *)
  Format.printf "@.Replaying the buggy interleaving of Figure 2...@.";
  let profile = { target.profile with Seed.supported = [ Seed.KPut ] } in
  let seed = Pmrace.Mutator.populate (Sched.Rng.create 5) profile ~factor:3 in
  let entry =
    {
      Pmrace.Shared_queue.addr = Pmdk.Layout.root_base (* ht_off *);
      loads = [ Runtime.Instr.site "clht_lb_res.c:417" ];
      stores = [ Runtime.Instr.site "clht_lb_res.c:785" ];
      hits = 1;
    }
  in
  let engine = Pmrace.Engine.create target in
  let rec hunt n =
    if n > 300 then None
    else
      let input =
        Pmrace.Campaign.input ~sched_seed:n
          ~policy:(Pmrace.Campaign.Pmrace { entry; skip = 0 })
          target seed
      in
      let r = Pmrace.Campaign.run ~engine input in
      let hit =
        List.find_opt
          (fun (i : Runtime.Checkers.inconsistency) ->
            Runtime.Instr.name i.source.Runtime.Candidates.write_instr = "clht_lb_res.c:785")
          (Runtime.Checkers.inconsistencies r.env.Runtime.Env.checkers)
      in
      match hit with Some inc -> Some (n, inc) | None -> hunt (n + 1)
  in
  match hunt 1 with
  | None -> Format.printf "no buggy interleaving found (unexpected)@."
  | Some (sched_seed, inc) ->
      Format.printf "scheduler seed %d: %a@." sched_seed Runtime.Checkers.pp_inconsistency inc;
      let image = Option.get (Pmem.Crash_images.image (Option.get inc.crash) 0) in
      Format.printf "crash injected at the durable side effect (word %d)@." inc.eff_addr;
      (* Post-failure: recover and show that the insert is lost. *)
      let env = Runtime.Env.of_image image in
      target.annotate env;
      target.recover env;
      let ht = Pmem.Pool.image_word image Pmdk.Layout.root_base in
      Format.printf "recovered table pointer: %Ld (the OLD table)@." ht;
      Format.printf "the inserted item went to word %d — beyond the old table: data loss@."
        inc.eff_addr;
      (* The recovered index still answers lookups for old data. *)
      let reachable = ref 0 in
      for k = 0 to 31 do
        if Workloads.Pclht.lookup_after_recovery env k <> None then incr reachable
      done;
      Format.printf "keys still reachable after recovery: %d@." !reachable
