(** Systematic crash-image enumeration.

    At a failure point {!Pool.crash_image} is only one of the reachable
    durable states: any subset of the in-flight cache lines may
    additionally have drained, subject to fence order.  This module
    captures a crash surface from the pool's O(touched) journal — a
    shared base image, the durable words that differ from it, and the
    in-flight lines — and enumerates the reachable images as lazy deltas,
    never a full pool copy per image or per capture.

    Per line, the model is a small drain-level radix: level 0 leaves the
    line as in image 0; level 1 drains its pending (flushed,
    pre-fence) words; the top level models a whole-line eviction, which
    drains the dirty words {e and} the pending ones (dirty words never
    reach PM without the rest of the line).  Lines drain independently —
    cross-line ordering up to the last fence is already folded into
    image 0.

    Enumeration order is deterministic and indexable: images are ordered
    by total drain weight, then lexicographically by line address.
    {b Index 0 is always the empty delta}, i.e. exactly
    {!Pool.crash_image} at the capture — so a budget of one image
    reproduces single-image validation bit-identically. *)

type state
(** The captured crash surface, immutable: a shared base image, the
    durable delta over it, and the per-line in-flight words. *)

type delta = (int * int64) list
(** An enumerated image as [(word, value)] overrides of image 0, ascending
    by word.  The empty delta is image 0 itself. *)

val capture : Pool.t -> state
(** Capture the crash surface at the current instant from
    {!Pool.capture_delta}: its base (shared, not copied, except once per
    pool that was never booted or checkpointed), the durable
    words that differ from it, and the in-flight words whose volatile
    value differs from the durable one (no-op drains would duplicate
    images), found in one walk of the pool's touched-word journal.  O(touched) time and allocation, independent of the pool
    size.  When nothing mutated the pool since the previous capture, that
    same surface is returned (physically equal). *)

val base : state -> Pool.image
(** The shared base image (not a copy — treat as read-only).  It is not
    image 0 in general: booting it needs {!boot_delta}. *)

val boot_delta : state -> delta -> delta
(** [boot_delta st d] is the image with delta [d] as overrides of {!base}:
    the durable delta followed by [d], so that a word
    in both takes its value from [d] when the pairs are applied in order,
    as {!Pool.boot} does.  So
    [Pool.boot ~delta:(boot_delta st d) pool (base st)] boots exactly that
    image, and every image of one base takes the journal-rewind path. *)

val image_word : state -> delta -> int -> int64
(** [image_word st d w] is word [w] of the image with delta [d], without
    materialising it. *)

val line_count : state -> int
(** Number of in-flight cache lines. *)

val count : state -> int
(** Number of reachable images (product of per-line radices, saturating
    at [max_int]); at least 1. *)

val to_seq : state -> (int * delta) Seq.t
(** All reachable images in enumeration order, as [(index, delta)].
    The first element is always [(0, [])]. *)

val delta : state -> int -> delta option
(** [delta st i] is the delta of image [i], or [None] when [i] is out of
    range.  O(i) — it walks the enumeration; meant for replaying a
    recorded image index, not for iteration (use {!to_seq}). *)

val image : state -> int -> Pool.image option
(** [image st i] materialises image [i] as an independent copy (base
    plus {!boot_delta}); [None] when out of range.  Validation never
    copies: it boots its recovery pool from {!base} with the boot delta
    ({!Pool.boot}). *)
