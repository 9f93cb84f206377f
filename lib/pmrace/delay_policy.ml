(* The Delay-Inj baseline of §6.1: before each PM access, inject a random
   delay (uniformly distributed over 0 to [max_delay - 1] scheduler
   steps, one [yield_n] stall).  This is the conventional
   interleaving-exploration technique PMRace is compared against in
   Figure 8. *)

module Rng = Sched.Rng
module Env = Runtime.Env

type t = { rng : Rng.t; prob : float; max_delay : int }

let create ?(prob = 0.08) ?(max_delay = 25) ~rng () = { rng; prob; max_delay }

let policy t : Env.policy =
  {
    before =
      (fun _ctx _fp ->
        Sched.Scheduler.yield ();
        if Rng.float t.rng < t.prob then Sched.Scheduler.yield_n (Rng.int t.rng t.max_delay));
    after = (fun _ _ -> ());
  }
