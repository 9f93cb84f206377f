(** PM alias pair coverage (§4.2.1): a bitmap over hashed pairs of
    back-to-back PM accesses to the same address by different threads, each
    access identified by (instruction, persistency state, thread).  New
    bits are the fuzzer's interleaving-coverage feedback. *)

type t

type access = { a_instr : int; a_dirty : bool; a_tid : int }

val create : ?size_log:int -> unit -> t
(** A bitmap with [2^size_log] bits (default 16, i.e. a 64 Kbit map). *)

val observe : t -> prev:access -> cur:access -> bool
(** Feed one back-to-back pair; returns [true] when it sets a new bit.
    Same-thread pairs are ignored (they are not alias pairs). *)

val count : t -> int
(** Number of set bits — the coverage measure. *)

val size : t -> int
(** The bitmap's size in bits. *)

val merge_into : src:t -> t -> unit
(** Fold [src] (a worker's per-campaign delta) into a shared map: OR the
    bytes [src] touched and union the achieved site pairs, in O(touched
    bytes + pairs) whatever the bitmap's size.  The destination's [count]
    only grows by genuinely new bits, so a before/after [count] comparison
    across a merge is the coverage-improvement signal.  Maps must have the
    same {!size} ([Invalid_argument] otherwise).  Not itself synchronised
    — callers serialise merges (the fuzzer's hub does this under one
    mutex). *)

val record_site_pair : t -> write_instr:int -> read_instr:int -> unit
(** Register a (write site, read site) pair as dynamically achieved — a
    cross-thread dirty read. *)

val record_candidates : t -> Runtime.Candidates.t -> unit
(** Register the pair of every unique [Inter] candidate: a load of
    another thread's non-persisted write is exactly an achieved pair.
    {!Hub.commit} adds a campaign's candidates to its delta this way. *)

val achieved_site_pairs : t -> int
(** Distinct achieved (write site, read site) pairs. *)

val site_pairs : t -> (int * int) list
(** The achieved pairs themselves, as raw instruction ids, sorted. *)

val fresh_pairs : src:t -> t -> (int * int) list
(** The pairs of [src] (a worker's delta) that the destination has not
    achieved yet, sorted: what {!merge_into} is about to add.  Costs
    O(|src| log |src|), independent of the destination's size. *)

val set_possible : t -> int -> unit
(** Install the statically-possible pair count computed by the offline
    analyzer's site graph — the coverage denominator. *)

val possible : t -> int option

val pp_site_coverage : Format.formatter -> t -> unit
(** "achieved/possible site pairs", or just the achieved count when no
    static pre-pass ran. *)

type tracker
(** Per-execution scratch (previous accessor per address), held in
    generation-stamped address-indexed arrays: an access costs a few
    array writes, a reset is O(1).  The persistent-mode engine keeps
    one per worker and resets it between campaigns instead of allocating
    fresh closures. *)

val tracker : unit -> tracker
val reset_tracker : tracker -> unit

val record_access : t -> tracker -> addr:int -> instr:int -> dirty:bool -> tid:int -> unit
(** Feed one PM access (instruction id {!Runtime.Instr.to_int}; a store
    is [~dirty:true]): the pair it forms with the address's previous
    access.  The worker's coverage recorder ({!Hub.recorder}) calls this;
    site pairs come from {!record_candidates}. *)

val clear : t -> unit
(** Empty the map (bitmap, count, achieved pairs, denominator) so a
    worker-local delta can be reused across campaigns.  Costs O(touched
    bytes), not O(bitmap). *)

val site_pair : (string * string) Obs.Codec.t
(** A (write site, read site) pair by name: [{"write": _, "read": _}] —
    the one form artifacts, wire frames and store files use. *)

val codec : t Obs.Codec.t
(** Wire/store codec (fleet mode): the bitmap as hex plus the achieved
    site pairs {e by name}, so the pairs survive processes with different
    site-id layouts.  The static denominator is not carried.  Decoding
    re-registers site names via {!Runtime.Instr.site} and checks that the
    size is a power of two matching the bitmap's length. *)
