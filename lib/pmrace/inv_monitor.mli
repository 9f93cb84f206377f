(** Online invariant-violation monitor: the fuzzer-side consumer of the
    mined {!Analysis.Invariants} specs.

    One monitor per worker.  {!attach} is passed as a campaign listener;
    it resets the checker's per-execution state and steps it on every
    instrumented event.  The first violation of each invariant (per
    worker) captures the durable pool image at the violating store, so
    the hit can be routed through {!Post_failure.validate} (as a
    {!Post_failure.Candidate.Ordering}) like any other candidate. *)

type hit = {
  h_inv : Analysis.Invariants.inv;
  h_label : string;  (** stable identity, the cross-worker dedup key *)
  h_site : Runtime.Instr.t;  (** the violating store's site *)
  h_addr : int;
  h_words : int list;  (** still-pending source words at the violation *)
  h_crash : Pmem.Crash_images.state option;
      (** crash surface at the violation, for enumeration: image 0 is the
          durable state at the violating store *)
}

type t

val create : Analysis.Invariants.spec list -> t

val attach : t -> Runtime.Env.t -> unit
(** Campaign listener: reset the checker and subscribe to the
    environment's event stream. *)

val drain : t -> hit list
(** New hits since the last drain, in discovery order. *)
