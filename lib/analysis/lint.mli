(** Persistency lint pass: run the {!Lifecycle} FSM over each execution's
    events and aggregate its observations into findings, deduplicated by
    site pair and ranked by severity.

    The four original rules (WITCHER's persistence lifecycle rules,
    specialised to the event stream we record):
    - {e unflushed-store-published}: a store still in the dirty state was
      read by another thread — the classic PM inter-thread hazard
      (severity High);
    - {e flush-without-fence-before-release}: a store was flushed but no
      fence had ordered it when another thread consumed it (Medium);
    - {e redundant CLWB}: a flush of a line with no dirty words (Low);
    - {e redundant SFENCE}: a fence with no flush or non-temporal store
      since the previous fence (Low).

    The PM-bug-taxonomy classes (Hasan'23), enabled by [~taxonomy:true]:
    - {e double CLWB}: the same line flushed twice with no intervening
      store to it — the recurring double-flush performance bug (Low);
    - {e cross-region durability ordering}: a fence persisted a store
      issued after a still-dirty store in a different pool region
      (Medium; needs a [region_of] classifier);
    - {e dirty at end of execution}: words still dirty when the run
      ended, promoted from {!Lifecycle.dirty_words} residue (Medium);
    - {e missing recovery-path flush}: the same residue observed in a
      recovery run — state the recovery wrote but never made durable, so
      it is lost again at the next crash (High). *)

module Instr = Runtime.Instr

type severity = High | Medium | Low

type kind =
  | Unflushed_publish
  | Unfenced_publish
  | Redundant_flush
  | Redundant_fence
  | Double_flush  (** taxonomy: same line CLWB'd twice, no store between *)
  | Cross_region_order  (** taxonomy: younger store durable before older cross-region store *)
  | Unflushed_at_exit  (** taxonomy: dirty residue at end of a normal run *)
  | Missing_recovery_flush  (** taxonomy: dirty residue at end of a recovery run *)

type phase = [ `Normal | `Recovery ]

type finding = {
  f_kind : kind;
  f_severity : severity;
  f_write_site : Instr.t option;  (** the store site, where the rule has one *)
  f_site : Instr.t;  (** read site / flush site / fence site *)
  mutable f_addr : int;
      (** smallest observed sample address (absorb-order independent); -1
          for fences *)
  f_first_exec : int;  (** 1-based index of the execution of the first occurrence *)
  mutable f_count : int;  (** dynamic occurrences across all executions *)
}

type t

val create : ?taxonomy:bool -> ?region_of:(int -> int) -> unit -> t
(** [taxonomy] (default false) enables the four taxonomy classes; the
    default pass emits exactly the original four rules.  [region_of]
    feeds the {!Lifecycle} cross-region detector. *)

val step : t -> Runtime.Env.event -> unit
(** Lint one event of the current execution, in program order. *)

val finish : t -> phase -> unit
(** End the current execution and reset the per-word FSM state.  [phase]
    selects which residue kind end-of-trace dirty words become under
    [taxonomy]: dirty-at-exit for a normal run, missing-recovery-flush
    for a recovery run. *)

val absorb : ?phase:phase -> t -> Runtime.Env.event list -> unit
(** {!step} over a recorded event stream, then {!finish} in [phase]
    (default [`Normal]). *)

val findings : t -> finding list
(** Deduplicated by (rule, write site, site), most severe first.  The
    sort key is a total order over dedup keys, so the list is identical
    no matter what order the same executions were linted in. *)

val count : t -> int

val all_kinds : kind list
(** Every kind, in rank order (stable across releases for reporting). *)

val severity_rank : severity -> int
(** [High] = 0, [Medium] = 1, [Low] = 2 — for threshold comparisons. *)

val kind_label : kind -> string

val kind_slug : kind -> string
(** Stable snake_case identifier, used as the metrics label and in JSON
    artifacts. *)

val pp_severity : Format.formatter -> severity -> unit
val pp_finding : Format.formatter -> finding -> unit
