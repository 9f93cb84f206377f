(** Aggregation of findings across fuzz campaigns and unique-bug grouping
    (§6.2): inconsistencies group by their writing store site, sync bugs by
    variable type. *)

module Checkers = Runtime.Checkers
module Candidates = Runtime.Candidates

(** What a candidate is about.  Each subject kind has its own dedup key:
    inconsistencies by (write, read, effect, kind), sync events by
    (variable, value), invariant violations by label. *)
type subject =
  | Inconsistency of Checkers.inconsistency
  | Sync of Checkers.sync_event
  | Invariant of {
      label : string;  (** the invariant's stable label — the dedup key *)
      kind : string;  (** ["order" | "commit"] *)
      site : string;  (** the violating store's site name *)
      addr : int;
      crash : Pmem.Crash_images.state option;
          (** crash surface at the violating store *)
      words : int list;  (** source words still pending at the violation *)
    }

type finding = {
  subject : subject;
  found_at : int;  (** campaign index of first sighting *)
  mutable verdict : Post_failure.verdict option;  (** [None] until validated *)
}
(** One candidate, from first sighting to its post-failure verdict. *)

val kind : finding -> [ `Inter | `Intra | `Sync | `Invariant ]

val site : finding -> string
(** The write site, sync variable or invariant label — the group site. *)

val read_site : finding -> string
(** The read site; the violating store for an invariant; [""] for sync. *)

val kind_slug : [< `Inter | `Intra | `Sync | `Invariant ] -> string
(** ["inter" | "intra" | "sync" | "invariant"], as events and artifacts
    spell the kind. *)

val validate : Post_failure.ctx -> finding -> Post_failure.verdict
(** Validate the finding post-failure (§4.4) and record the verdict. *)

type t

val create : unit -> t

val absorb :
  campaign:int -> t -> Runtime.Env.t -> hung:bool -> hang_info:string -> finding list
(** Fold one campaign's checker results in; returns the {e newly}
    discovered unique inconsistencies followed by the new sync events,
    which the fuzzer then validates.  [campaign] stamps first sightings;
    discovery is deduplicated by bug identity — candidate pairs by
    packed (write, read, kind) site ids, inconsistencies by packed
    (write, read, kind, effect), sync events by (variable, value) — so
    the resulting {e set} of unique findings is independent of the order
    in which concurrent workers' campaigns are absorbed.  No site name is
    looked up: names are decoded only when listing. *)

val set_lint : t -> Analysis.Lint.finding list -> unit
(** Attach the static pre-pass's persistency-lint findings, so sessions
    carry them alongside the dynamic findings. *)

val lint_findings : t -> Analysis.Lint.finding list

val set_invariants : t -> Analysis.Invariants.spec list -> unit
(** Attach the mined invariant set the session's monitor ran with. *)

val invariants : t -> Analysis.Invariants.spec list

val record_invariant : campaign:int -> t -> Inv_monitor.hit -> finding option
(** Record an invariant violation; returns the finding only on first
    sighting of the label, so each invariant is validated once. *)

val invariant_findings : t -> finding list
(** Sorted by label (deterministic regardless of discovery order). *)

val findings : t -> finding list
(** The unique inconsistencies, by campaign of first sighting and then by
    packed key ({!Runtime.Checkers.inc_key}). *)

val sync_findings : t -> finding list
(** The unique sync events. *)

val hangs : t -> (string * int) list

val candidate_count : t -> Candidates.kind -> int
(** Unique (write site, read site) candidate pairs seen so far. *)

val candidate_pairs : t -> (string * string * Candidates.kind) list
(** The unique candidate pairs themselves, as (write site, read site,
    kind), in packed-key order. *)

val inconsistency_count : t -> Candidates.kind -> int

val verdict_summary : t -> Candidates.kind -> int * int * int * int
(** (validated FPs, whitelisted FPs, bugs, unvalidated), over fine-grained
    findings (one per (write, read, effect) triple). *)

type coarse_summary = {
  total : int;
  validated_fp : int;
  whitelisted_fp : int;
  bugs : int;
  pending : int;
}

val coarse_summary : t -> Candidates.kind -> coarse_summary
(** Table-3 style accounting: one entry per (write site, read site) pair —
    the candidate grouping — carrying the pair's worst verdict. *)

val sync_summary : t -> int * int * int * int
(** {!verdict_summary} over the sync events. *)

type bug_group = {
  bg_kind : [ `Inter | `Intra | `Sync ];
  bg_site : string;  (** write site, or sync variable name *)
  bg_read_sites : string list;
  bg_members : int;  (** bug-verdict members *)
  bg_first_campaign : int;
      (** earliest sighting among {e all} the group's findings, whatever
          their verdict *)
  bg_image_index : int;
      (** crash-image index of the earliest bug-verdict member — the image
          replay rebuilds *)
}

val bug_groups : t -> bug_group list
(** Unique bugs: validated findings grouped per §6.2 — inconsistencies by
    (kind, write site), sync events by variable.  Invariant violations
    form no group. *)

val match_known : Target.t -> bug_group list -> (Target.known_bug * bool) list
(** Pair each seeded ground-truth bug with whether a group matches it. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_bug_group : Format.formatter -> bug_group -> unit
