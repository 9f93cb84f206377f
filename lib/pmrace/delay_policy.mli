(** The Delay-Inj baseline (§6.1): a uniformly random delay injected before
    each PM access, implemented in PMRace's framework for the Figure 8
    comparison. *)

module Rng = Sched.Rng

type t

val create : ?prob:float -> ?max_delay:int -> rng:Rng.t -> unit -> t
(** Each PM access is delayed with probability [prob] (default 0.08); a
    delay stalls the accessing thread for a uniform draw of 0 to
    [max_delay - 1] scheduler steps ([max_delay] defaults to 25, and must
    be at least 1). *)

val policy : t -> Runtime.Env.policy
