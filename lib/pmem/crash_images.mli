(** Systematic crash-image enumeration.

    At a failure point the base {!Pool.crash_image} is only one of the
    reachable durable states: any subset of the in-flight cache lines may
    additionally have drained, subject to fence order.  This module
    captures the in-flight state from the pool's O(touched) journal and
    enumerates the reachable images as lazy deltas over the shared base
    image — never a full pool copy per image.

    Per line, the model is a small drain-level radix: level 0 leaves the
    line as in the base image; level 1 drains its pending (flushed,
    pre-fence) words; the top level models a whole-line eviction, which
    drains the dirty words {e and} the pending ones (dirty words never
    reach PM without the rest of the line).  Lines drain independently —
    cross-line ordering up to the last fence is already folded into the
    base image.

    Enumeration order is deterministic and indexable: images are ordered
    by total drain weight, then lexicographically by line address.
    {b Index 0 is always the empty delta}, i.e. exactly the base
    [crash_image] — so a budget of one image reproduces single-image
    validation bit-identically. *)

type state
(** The captured crash surface: base image + per-line in-flight words. *)

type delta = (int * int64) list
(** An enumerated image as [(word, value)] overrides of the base image,
    ascending by word.  The empty delta is the base image itself. *)

val capture : Pool.t -> state
(** Capture the crash surface at the current instant.  O(touched): walks
    {!Pool.dirty_words} / {!Pool.pending_words}, keeping only words whose
    volatile value differs from the durable one (no-op drains would
    duplicate images). *)

val of_image : Pool.image -> state
(** A degenerate surface with no in-flight lines: enumerates exactly one
    image, the given one.  Used to validate legacy candidates that carry
    only a bare image. *)

val base : state -> Pool.image
(** The base image (shared, not a copy — treat as read-only). *)

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
    plus delta); [None] when out of range.  Validation never copies: it
    boots its recovery pool from {!base} with the delta
    ({!Pool.boot}). *)
