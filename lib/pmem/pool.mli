(** Simulated persistent-memory pool.

    The pool models the visibility/persistency gap that defines PM
    crash-consistency bugs: stores become {e visible} immediately (they land
    in the volatile image, the simulated cache view) but only become
    {e durable} once the line has been flushed ([clwb]) and a fence
    ([sfence]) has drained the write-back queue.  A {!crash_image} captures
    exactly the durable contents, discarding everything else.

    Addresses are word offsets (one word = 8 bytes); see {!Cacheline}. *)

type t

type writer = { tid : int; instr : int; seq : int }
(** Identity of the last store to a dirty word: the writing thread, the
    static instruction id of the store site, and a global sequence number. *)

type image
(** A pool image: the durable contents at some instant — a crash image,
    or the {!checkpoint} of a quiesced pool. *)

val create : ?eadr:bool -> words:int -> unit -> t
(** [create ~words ()] allocates a zeroed pool.  [words] must be a positive
    multiple of {!Cacheline.words_per_line}.
    [eadr:true] models extended ADR (§6.6 of the paper): the cache
    hierarchy is battery-backed, every store is durable immediately and
    never PM-dirty — the visibility/persistency gap disappears.
    @raise Invalid_argument otherwise. *)

val is_eadr : t -> bool

val set_eadr : t -> bool -> unit
(** Switch eADR on or off.  Only meaningful on a quiesced pool (no dirty
    or pending words, e.g. right after {!boot}): an eADR pool keeps
    no per-word metadata, so in-flight cache state would be lost. *)

val size : t -> int

val load : t -> int -> int64
(** Read the visible (volatile) contents of a word. *)

val peek : t -> int -> int64
(** The same read as {!load}, named for readers that are not the
    program under test: checkers and tests. *)

val store : t -> tid:int -> instr:int -> int -> int64 -> unit
(** A cached store: visible immediately, durable only after [clwb]+[sfence].
    Marks the word dirty and records the writer. *)

val movnt : t -> tid:int -> instr:int -> int -> int64 -> unit
(** A non-temporal store: visible immediately, never PM-dirty for checking
    purposes, durable after the next {!sfence}. *)

val clwb : t -> int -> unit
(** Flush the cache line containing the word: its dirty words become clean
    and are queued for write-back at the next {!sfence}. *)

val sfence : t -> int list
(** Drain the write-back queue.  Returns the word offsets that just became
    durable (in increasing order).  Cost is O(pending-index size) — the
    words flushed or movnt'd since the last drain — not O(pool): the pool
    maintains an explicit pending-word index (generation-stamped, deduped
    once per generation like the touched-word journal) instead of scanning
    every word.  Behaviourally identical to {!sfence_scan}. *)

val sfence_scan : t -> int list
(** The legacy O(pool-size) fence: a full scan over every word.  Kept as
    the executable specification of {!sfence} for the equivalence property
    test and the [hotpath] bench; not for production callers. *)

val pending_index_size : t -> int
(** Number of entries the next {!sfence} will examine: the words whose
    pending flag was raised since the last drain (a superset of the
    currently pending words — later stores may have cleared flags).  This
    is exactly the fence's work, the O(pending) analogue of
    {!touched_words}; it resets to 0 at every fence and epoch change. *)

val evict_line : t -> int -> int list
(** Silently write back a line, modelling arbitrary hardware cache eviction.
    Returns the words that became durable. *)

val dirty_writer : t -> int -> writer option
(** [dirty_writer t w] is the identity of the pending store to [w], or
    [None] when the word is clean (persisted or never written). *)

val dirty_tid : t -> int -> int
val dirty_instr : t -> int -> int
(** The [tid] and [instr] fields of {!dirty_writer}, read without
    allocating.  Only meaningful while {!is_dirty} holds. *)

val is_dirty : t -> int -> bool
val is_pending : t -> int -> bool

val is_durably_equal : t -> int -> bool
(** Whether the visible and durable contents of a word agree. *)

val dirty_words : t -> int list
(** All dirty word offsets, ascending.  O(touched this epoch), not
    O(pool): walks the touched-word journal, a superset of the dirty set
    within an epoch. *)

val pending_words : t -> int list
(** All pending word offsets, ascending.  O(touched this epoch), like
    {!dirty_words}. *)

val quiesce : t -> unit
(** Flush and fence everything, making the visible image durable. *)

val crash_image : t -> image
(** The durable contents right now — the memory a restarted program sees. *)

val capture_delta : t -> image * (int * int64) list * (int * int64 * bool) list
(** [capture_delta t] is [(base, durable, in_flight)], the raw material
    of a crash surface (see {!Crash_images}):

    - [base] is the image the touched-word journal diverges from: the
      image of the last {!boot} or {!checkpoint}, not copied.  A pool with
      neither copies its durable image once, at the first call, and keeps
      that copy until the next {!boot} or {!checkpoint}.  Treat it as
      read-only.
    - [durable] holds every word whose durable value differs from [base],
      with that value: [base] plus [durable] is {!crash_image}.
    - [in_flight] holds every dirty or pending word whose volatile value
      differs from its durable one, with the volatile value and whether
      the word is pending (flushed) rather than dirty.

    Both lists come from one walk of the journal, in no particular
    order, with distinct words: O(touched), independent of the pool
    size. *)

type surface = ..
(** The crash surface last captured from this pool, extended by
    {!Crash_images}. *)

type surface += No_surface

val remembered_surface : t -> surface
(** The surface last passed to {!remember_surface}, if no store, flush,
    fence, eviction or boot touched the pool since; [No_surface]
    otherwise.  Every image or metadata mutation advances the pool's
    instant, so this is one integer compare. *)

val remember_surface : t -> surface -> unit

val image_word : image -> int -> int64
val image_words : image -> int

val image_copy : image -> image
(** An independent copy of an image (for materialising enumerated crash
    states without touching the base; see {!Crash_images}). *)

val image_set : image -> int -> int64 -> unit
(** Overwrite one word of an image in place.  This is the delta-application
    primitive of {!Crash_images}: an enumerated crash state is the base
    image plus a few [image_set]s, never a fresh pool. *)

val of_image : image -> t
(** Boot a fresh pool from a crash image (volatile = durable = image, all
    clean), as after a restart.  Allocates a whole pool; validation reuses
    one pool through {!boot} instead, and [of_image] stays its executable
    specification. *)

val boot : ?delta:(int * int64) list -> t -> image -> unit
(** [boot t img] re-boots [t] in place into exactly the state [of_image img]
    would give: volatile = durable = [img], every word clean and not
    pending, an empty touched-word journal and pending index, sequence
    number 0, eADR off.  It is the pool's one rewind: between campaigns
    to a {!checkpoint}, in post-failure validation to a crash image.

    [delta] (default empty) overrides words of [img], as
    {!Crash_images} enumerates them: the result is [of_image] of [img]
    with each [(w, v)] written in list order (a later pair for the same
    word wins), except that {!touched_words} counts the delta's
    words.

    Allocation-free.  Booting the image [t] was last booted from
    (physically the same array, with no {!checkpoint} since) is a journal
    rewind, O(touched); any other image costs one read-only pass over the
    pool plus a write per differing word.  The pool keeps a reference to
    [img] to recognise it; the rewind trusts that [img] was not mutated
    (e.g. by {!image_set}) since the previous boot from it.
    @raise Invalid_argument on size mismatch or an out-of-bounds delta
    word. *)

val checkpoint : t -> image
(** An in-memory checkpoint (the paper's Figure 10): the image of a
    {e quiesced} pool — no dirty and no pending words, so its volatile
    and durable contents are equal — for {!boot} to rewind to.  Raises
    [Invalid_argument] on a pool with in-flight cache state, which no
    image holds: call {!quiesce} first.

    The image is a copy, and taking it leaves [t] in the state
    [boot t img] would give, eADR setting aside (it is kept), without the
    pass over the pool: the next boot from [img] is a rewind.  Booting
    never mutates an image, so one checkpoint can be shared read-only by
    many pools, across worker domains. *)

val touched_words : t -> int
(** Number of distinct words whose images were mutated since the last
    {!boot} or {!checkpoint} (the length of the touched-word journal).
    This is exactly the work a rewind (the next {!boot} from the same
    image) will do. *)
