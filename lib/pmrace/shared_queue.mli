(** The priority queue of shared PM data accesses (§4.2.2).

    Accesses observed across executions are grouped by address; addresses
    loaded and stored by different threads become preemption targets,
    prioritised by access frequency (the paper's "hot shared data first"
    principle). *)

module Instr = Runtime.Instr

type t

type entry = {
  addr : int;
  loads : Instr.t list;  (** sync points: loads of this address *)
  stores : Instr.t list;  (** signal sources: stores to this address *)
  hits : int;
}

val create : unit -> t
val observe_load : t -> addr:int -> instr:Instr.t -> tid:int -> unit
val observe_store : t -> addr:int -> instr:Instr.t -> tid:int -> unit
(** One access: a repeated (address, instruction, thread) fact costs a
    byte and a mask test, with no allocation.  Any int is a thread id. *)

val clear : t -> unit
(** Empty the queue so a worker-local delta can be reused across
    campaigns: O(observed addresses), the per-address records emptied in
    place and kept. *)

val merge_into : src:t -> t -> unit
(** Fold [src] (a worker's per-campaign delta) into a shared queue: union
    the per-address instruction/thread sets and sum hit counts.  The
    unions walk [src]'s members and write only the facts the destination
    lacks.  Not itself synchronised — callers serialise merges. *)

val entries : t -> entry list
(** Shared-data entries, most frequently accessed first. *)

val tracked_addresses : t -> int

val codec : t Obs.Codec.t
(** Wire/store codec (fleet mode): the full per-address records (sites by
    name, thread-id sets, hit counts), so decode-then-{!merge_into} is
    equivalent to merging the original queue.  Decoding re-registers site
    names via {!Runtime.Instr.site} and answers [Error], never an
    exception, for an address or thread id outside [[0, 2^24)]. *)
