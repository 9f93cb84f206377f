(** The coordinator's durable on-disk state (fleet mode).

    Layout under the store directory:
    - [meta.json] — target, budget total/used, client counter;
    - [coverage.json] — the aggregate coverage delta
      ({!Pmrace.Hub.delta_codec}, site names);
    - [bugs.json] — deduplicated fleet-wide bug sightings with origin
      provenance;
    - [corpus/<fingerprint>.json] — one corpus entry per unique seed
      ({!Pmrace.Seed.fingerprint} hex), with its credited pairs and age.

    Every mutation persists before it is acknowledged to a worker, via
    write-to-temp + fsync + rename (+ directory fsync), so a killed
    coordinator — SIGKILL or OS crash — restarts from the last
    acknowledged state and loses nothing but unacknowledged frames.
    A restarted coordinator {!load}s the directory and resumes the
    campaign where the budget left off. *)

type bug_entry = {
  be_kind : string;
  be_site : string;
  be_read_sites : string list;
  be_members : int;  (** member findings summed across sightings *)
  be_origin : string;  (** worker label that first reported it *)
  be_first_campaign : int option;  (** first reporter's local campaign index *)
}

type t

val dir : t -> string
val target : t -> string
val budget_total : t -> int
val budget_used : t -> int

val corpus : t -> Pmrace.Corpus_sched.t
(** The live corpus scheduler backed by [corpus/].  Mutate it only via
    {!add_seed} / {!credit_seed} so changes persist. *)

val bugs : t -> bug_entry list
(** Sorted by (kind, site). *)

val coverage : t -> Pmrace.Hub.delta
(** The aggregate coverage delta (shared fleet-wide achieved set). *)

val open_store : dir:string -> target:string -> budget:int -> (t, string) result
(** Load an existing store directory or initialise a fresh one.  Loading
    validates the recorded target; [budget] overrides the stored total
    (so a restart can extend a campaign) but never the used count. *)

val next_widx : t -> int
(** Allocate the next worker index (persisted, so worker RNG streams stay
    distinct across coordinator restarts). *)

val record_campaigns : t -> int -> unit
(** Account [n] campaigns as used budget and persist. *)

val merge_delta : t -> Pmrace.Hub.delta -> (unit, string) result
(** Fold a worker's shipped delta into the aggregate and persist.  A
    delta whose alias bitmap has another size is refused ([Error]) and
    leaves the aggregate untouched. *)

val add_seed : t -> ?pairs:(string * string) list -> Pmrace.Seed.t -> bool
(** Add a seed to the corpus (dedup by fingerprint; existing entries
    absorb [pairs]); persists the entry.  [true] = new entry. *)

val credit_seed : t -> Pmrace.Seed.t -> (string * string) list -> unit
(** Credit an existing corpus entry with newly achieved pairs and
    persist it. *)

val record_bug :
  t ->
  kind:string ->
  site:string ->
  read_sites:string list ->
  members:int ->
  origin:string ->
  first_campaign:int option ->
  bool
(** Record a bug sighting (dedup by (kind, site): members sum, read
    sites union, first origin wins); persists.  [true] = first sighting
    fleet-wide. *)

val budget_remaining : t -> int
