(* Shared fuzzing sessions for the table/figure reproductions.

   Each tested system is fuzzed once per (mode, ablation) configuration
   and the session is memoised, so every table reads from the same run —
   as in the paper, where one fuzzing campaign per system produces all of
   Tables 2/3/5/6.  The session's JSON artifact is memoised alongside it,
   so figure code can consume the serialized form (what CI archives)
   instead of the live session. *)

module Fuzzer = Pmrace.Fuzzer

type key = { k_target : string; k_mode : Fuzzer.mode; k_ie : bool; k_se : bool; k_campaigns : int }

let cache : (key, Fuzzer.config * Fuzzer.session) Hashtbl.t = Hashtbl.create 16
let artifacts : (key, Pmrace.Artifact.t) Hashtbl.t = Hashtbl.create 16

(* Campaign budgets per system, sized so that every seeded bug is within
   reach of the PM-aware exploration (cf. §6.1: 13 worker processes and
   hours of fuzzing in the original; our simulator campaigns are ~ms). *)
let budget_of = function
  | "p-clht" -> 400
  | "clevel" -> 150
  | "cceh" -> 250
  | "fast-fair" -> 350
  | "memcached-pmem" -> 500
  | _ -> 150

let master_seed_of = function
  | "p-clht" -> 5
  | "cceh" -> 5
  | "fast-fair" -> 5
  | "memcached-pmem" -> 9
  | _ -> 5

let key_of ?(mode = Fuzzer.Mode_pmrace) ?(interleaving_tier = true) ?(seed_tier = true) ?campaigns
    (target : Pmrace.Target.t) =
  let campaigns = Option.value ~default:(budget_of target.name) campaigns in
  {
    k_target = target.name;
    k_mode = mode;
    k_ie = interleaving_tier;
    k_se = seed_tier;
    k_campaigns = campaigns;
  }

let run_key (target : Pmrace.Target.t) key =
  match Hashtbl.find_opt cache key with
  | Some cs -> cs
  | None ->
      let cfg =
        Fuzzer.Config.make ~max_campaigns:key.k_campaigns
          ~master_seed:(master_seed_of target.name) ~mode:key.k_mode
          ~interleaving_tier:key.k_ie ~seed_tier:key.k_se ()
      in
      let s = Fuzzer.run target cfg in
      Hashtbl.add cache key (cfg, s);
      (cfg, s)

let run ?mode ?interleaving_tier ?seed_tier ?campaigns (target : Pmrace.Target.t) =
  snd (run_key target (key_of ?mode ?interleaving_tier ?seed_tier ?campaigns target))

let artifact ?mode ?interleaving_tier ?seed_tier ?campaigns (target : Pmrace.Target.t) =
  let key = key_of ?mode ?interleaving_tier ?seed_tier ?campaigns target in
  match Hashtbl.find_opt artifacts key with
  | Some a -> a
  | None ->
      let cfg, s = run_key target key in
      let a = Pmrace.Artifact.of_session ~target ~cfg s in
      Hashtbl.add artifacts key a;
      a
