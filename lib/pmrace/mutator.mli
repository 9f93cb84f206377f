(** PMRace's operation mutator (§4.5) and the AFL++-style havoc byte
    mutator baseline used in the Table 4 comparison. *)

module Rng = Sched.Rng

type strategy = Mutation | Addition | Deletion | Shuffling | Merging

val strategies : strategy list

val add_op : Rng.t -> Seed.profile -> Seed.t -> Seed.t
val delete_op : Rng.t -> Seed.profile -> Seed.t -> Seed.t
val shuffle_ops : Rng.t -> Seed.profile -> Seed.t -> Seed.t
val merge : Rng.t -> Seed.profile -> Seed.t -> Seed.t -> Seed.t

val evolve : Rng.t -> Seed.profile -> corpus:Seed.t list -> Seed.t -> strategy * Seed.t
(** Apply a random evolution strategy; [Merging] picks its partner from
    [corpus]. *)

val populate : Rng.t -> Seed.profile -> factor:int -> Seed.t
(** The load-phase fallback: flood the target with [factor ×] more inserts
    to trigger resizing paths. *)

val afl_havoc : Rng.t -> string -> string
(** Grammar-oblivious byte mutation of rendered command text. *)
