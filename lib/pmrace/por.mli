(** Partial-order-reduction glue: wires {!Runtime.Footprint} summaries
    into {!Sched.Scheduler.run} and computes a canonical
    Mazurkiewicz-trace hash per completed schedule.

    One harness serves one campaign at a time; {!reset} returns it to the
    fresh state so the persistent-mode {!Engine} can hold a single
    instance per worker.  {!wrap} interposes on the campaign's
    interleaving policy to record pending and executed footprints —
    instrumentation only, it never draws randomness and forwards every
    hook to the base policy, so the schedule semantics are unchanged.

    The trace hash is the XOR over executed ops of a mix of (footprint,
    Foata layer, tid, per-fiber sequence number).  Foata layers are
    invariant under dependency-preserving reorderings, and XOR is
    order-blind, so two schedules in the same Mazurkiewicz class digest
    identically regardless of interleaving — the fuzzer uses this to skip
    post-failure validation of behaviourally redundant campaigns.

    The digesting hot path is allocation-free: the four Foata-layer maps
    are flat generation-stamped open-addressing tables sized from the
    pool (reset = generation bump), the digest accumulates in a native
    [int], and a per-fiber frontier-clock fast path skips the table
    probes whenever the stepping fiber already owns the highest layer. *)

type t

val create : ?pool_words:int -> nthreads:int -> unit -> t
(** [pool_words] sizes the flat layer tables so that pool word/line
    indices never collide or trigger growth (default 1024; any key still
    works via probing + growth, it just may probe further). *)

val reset : t -> unit
(** Return the harness to the fresh state — O(fibers): table resets are
    generation bumps, not clears. *)

val wrap : t -> Runtime.Env.policy -> Runtime.Env.policy
(** Interpose footprint recording on a policy.  [before] records the
    pending footprint {e ahead} of the base hook's yield; [after] folds
    the executed op into the current step (and the trace hash) ahead of
    the base hook. *)

val hooks : t -> Sched.Scheduler.por
(** The int-typed view {!Sched.Scheduler.run} consumes: one record per
    harness, whose pruning counters {!stats} reads back. *)

val record_op : t -> int -> Runtime.Footprint.t -> unit
(** [record_op t tid fp] — fold one executed op into the digest directly,
    bypassing the policy wrapper.  For the trace-hash invariance property
    tests and the digest microbench, which replay synthetic schedules
    without a scheduler. *)

val trace_hash : t -> int64

val capacity : t -> int
(** The [nthreads] the harness was created for. *)

type stats = {
  s_trace_hash : int64;  (** canonical Mazurkiewicz-trace digest *)
  s_pruned_picks : int;
  s_forced_wakes : int;
}
(** Per-campaign pruning provenance, recorded in artifacts. *)

val stats : t -> stats
(** The digest so far plus the pruning counters of the last
    {!Sched.Scheduler.run} given {!hooks}. *)
