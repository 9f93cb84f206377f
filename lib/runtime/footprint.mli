(** The one description of an instrumented operation.

    Every instrumented operation ({!Mem}) summarises to one immediate
    int: a tag (load / store / read-write / flush / fence / opaque) plus
    a word or cache-line payload.  {!Mem} builds it once per operation
    and passes it to both {!Env.policy} hooks, so interleaving policies
    (the sync-point policy tests it against its entry's word) and
    partial-order reduction read the same value.  The scheduler's POR
    mode ({!Sched.Scheduler.run} with hooks) tests two step footprints
    for independence in O(1) with no allocation; footprints cross the
    [lib/sched] dependency boundary as plain ints, so the scheduler never
    needs to see runtime types.

    Soundness direction: the relation may declare dependent steps that
    actually commute (e.g. an [opaque] multi-op step), never the
    reverse — over-approximating dependence only costs pruning. *)

type t = int
(** Tag in bits 0-2, payload (word index, or line index for flushes)
    in bits 3+. *)

val none : t
(** The step ran no instrumented operation; commutes with everything. *)

val fence : t
val opaque : t
(** A step whose effect is unknown (several instrumented ops, or an
    op the encoding doesn't model); commutes with nothing. *)

val load : int -> t
(** [load word] *)

val store : int -> t
(** [store word] — a cached or a non-temporal store. *)

val rw : int -> t
(** [rw word] — a CAS: reads and may write the word, whether or not it
    succeeds. *)

val flush : int -> t
(** [flush word] — records the {e cache line} of [word]. *)

val tag : t -> int
val payload : t -> int

val line : t -> int
(** The cache line touched (derived for word-level ops). *)

val independent : t -> t -> bool
(** [independent a b] — swapping adjacent steps with these footprints
    provably preserves the pool state and event outcome.  Reflexivity is
    not guaranteed ([independent fence fence = false]); symmetry is. *)

val spin_retry : t -> t -> bool
(** [spin_retry prev next] — the fiber that just executed [prev] is about
    to retry the identical read-modify-write ([rw]) footprint: the shape
    of a failed CAS busy-waiting on a lock word.  Until another step
    touches that word (necessarily a conflicting access, which wakes
    sleepers), every retry observes the same value and persistency state,
    so {!Sched.Scheduler.run} parks the spinner instead of letting it
    burn the step budget. *)

val pp : Format.formatter -> t -> unit
