(** Runtime PM inconsistency checkers (§4.3 of the paper).

    Tracks inconsistency candidates (loads of non-persisted data), pending
    durable side effects (stores of tainted data), confirmed PM
    Inter-/Intra-thread Inconsistencies (the side effect became durable
    while its source data was still volatile — a crash image is captured at
    that instant, when the checker's {!capture} value accepts the
    finding), and PM Synchronization Inconsistencies (persisted updates
    of annotated synchronization variables). *)

type t

type inconsistency = {
  source : Candidates.cand;
  eff_addr : int;  (** word carrying the durable side effect, [-1] if external *)
  eff_instr : Instr.t;
  eff_tid : int;
  addr_flow : bool;  (** the taint reached the store through its address *)
  external_effect : bool;
  crash : Pmem.Crash_images.state option;
      (** crash surface at confirmation, for {!Pmem.Crash_images}
          enumeration: image 0 is the durable state at that instant;
          [None] when the checker's {!capture} value declined it *)
  eff_words : int list;
}

type sync_var = { sv_name : string; sv_addr : int; sv_len : int; sv_init : int64 }

type sync_event = {
  var : sync_var;
  sy_addr : int;
  sy_value : int64;
  sy_crash : Pmem.Crash_images.state option;  (** as {!inconsistency.crash} *)
}

type side_effect = {
  se_addr : int;
  se_instr : Instr.t;
  se_tid : int;
  se_addr_flow : bool;
  se_sources : Candidates.cand list;
}

val inc_key : Candidates.cand -> Instr.t -> int
(** [inc_key source eff_instr]: an inconsistency's identity, the
    source's {!Candidates.key} with the effect site id packed below it. *)

type capture = { inc : int -> bool; sync : string -> int64 -> bool }
(** Which findings get a crash surface.  A surface's only readers are
    post-failure validation and a bug report's "crash state" line, so a
    checker captures one only for a finding its consumer will validate.
    [inc] is asked with an inconsistency's {!inc_key}, [sync] with a
    sync event's variable name and persisted value: the identities
    [Report.absorb] deduplicates on.  Each is asked once per
    per-execution unique finding, when the checker records it; the
    per-access hooks never ask. *)

val all : capture
(** Capture for every finding. *)

val none : capture
(** Capture for no finding: initialisation, recovery runs, coverage-only
    executions. *)

val create : ?capture:capture -> unit -> t
(** [capture] defaults to {!all}. *)

val reset : t -> capture:capture -> unit
(** Return to what {!create} gives, in place and without allocating a
    per-word table: candidates, pending effects, findings, sync
    annotations and the capture count are all dropped. *)

val candidates : t -> Candidates.t

val captures : t -> int
(** Crash surfaces requested since the last {!create} or {!reset}: one
    per finding the [capture] value accepted, including those that
    shared the surface of an earlier request at the same pool instant. *)

val annotate_sync : t -> name:string -> addr:int -> len:int -> init:int64 -> unit
(** The [pm_sync_var_hint(size, init_val)] annotation of §5. *)

val annotation_count : t -> int
(** Number of {e distinct} annotation names — one source annotation may
    cover many words (e.g. a per-bucket lock field). *)

val on_load : t -> Pmem.Pool.t -> tid:int -> instr:Instr.t -> addr:int -> int
(** Candidate creation: when [addr] is dirty, registers the candidate and
    returns its id, which the caller adds to the loaded value's taint;
    [-1] when the word is clean.  Allocates nothing but the candidate. *)

val on_store :
  t ->
  Pmem.Pool.t ->
  tid:int ->
  instr:Instr.t ->
  addr:int ->
  value_taint:Taint.t ->
  addr_taint:Taint.t ->
  unit
(** Registers a pending durable side effect when value or address taint
    traces back to still-unpersisted data. *)

val on_persisted : t -> Pmem.Pool.t -> int list -> unit
(** Called with the words a fence (or eviction) just made durable; confirms
    inconsistencies and records persisted sync-variable updates. *)

val on_external_effect : t -> Pmem.Pool.t -> tid:int -> instr:Instr.t -> taint:Taint.t -> unit
(** A durable effect outside PM (disk, socket): confirmed immediately. *)

val inconsistencies : t -> inconsistency list
val sync_events : t -> sync_event list
val pending_effects : t -> side_effect list
(** The pending side effects, one per word at most, in increasing address
    order. *)

val pp_inconsistency : Format.formatter -> inconsistency -> unit
val pp_sync_event : Format.formatter -> sync_event -> unit
