(** PM-aware interleaving exploration: the cond_wait/cond_signal
    synchronization algorithm of Figure 6, driving reader threads into
    loads of non-persisted data for one shared-access queue entry.

    Handles the paper's three pitfalls: disable-after-signal, privileged
    thread election when all workers block, and persistent skip counts for
    sync points that blocked unnecessarily. *)

module Rng = Sched.Rng

type t

val create :
  ?writer_wait:int ->
  ?block_threshold:int ->
  rng:Rng.t ->
  nthreads:int ->
  skip:int ->
  Shared_queue.entry ->
  t
(** [writer_wait] is the number of yields the writer performs after
    signalling (the paper's [writerWaiting]); [skip] is the persisted
    number of cond_wait executions to skip (Pitfall 3). *)

val policy : t -> Runtime.Env.policy
(** The interleaving policy to install for one fuzz campaign. *)

val triggered : t -> bool
(** Whether cond_signal fired (a writer reached the entry's store). *)

val waits_executed : t -> int

val next_skip : t -> previous:int -> int
(** Skip count to persist for the next campaign on the same seed. *)
