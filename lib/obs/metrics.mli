(** Domain-safe metrics: counters, gauges, and fixed-bucket histograms in
    a global registry.

    Design constraints, in order:
    - {b cheap no-op when disabled}: recording is gated on one atomic
      boolean ({!enabled}), so instrumented hot paths (the scheduler step
      loop, the hub lock) cost a single load when metrics are off — and
      recording never touches an RNG, so seeded fuzzing sessions are
      bit-identical with metrics on or off;
    - {b domain-safe}: values are [Atomic]s, registration is mutex-guarded,
      so §5 worker domains record concurrently without locks;
    - {b labelled}: a metric instance is identified by (name, labels), so
      per-worker series ([("worker", "3")]) coexist under one name.

    Handles are registered once (typically at module or worker setup) and
    then recorded against directly; registration while disabled is fine
    and expected. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Globally enable/disable recording.  Off by default. *)

val enabled : unit -> bool

(** {2 Registration}

    Re-registering the same (name, labels) returns the existing instance.
    @raise Invalid_argument if the name is already registered as a
    different metric kind. *)

val counter : ?labels:(string * string) list -> string -> counter
val gauge : ?labels:(string * string) list -> string -> gauge

val histogram : ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds of the cumulative-style buckets (an
    implicit [+inf] bucket is always appended); defaults to 1ms .. 30s,
    roughly exponential — suits campaign/validation latencies. *)

(** {2 Recording} — single atomic-load no-ops while disabled. *)

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, observing its wall duration when enabled (plain call
    when disabled). *)

(** {2 Reading} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; count : int; sum : float }
      (** [buckets] pairs each upper bound (the last is [infinity]) with
          the count of observations [<=] it (non-cumulative per cell). *)

type reading = { r_name : string; r_labels : (string * string) list; r_value : value }

val snapshot : unit -> reading list
(** Every registered metric, sorted by (name, labels). *)

val reset : unit -> unit
(** Zero all values.  Registrations (and handles) stay valid — the CLI
    resets before a session so the footer shows only that session. *)

val to_json : unit -> Json.t
(** The snapshot as a JSON array (one object per reading). *)

val pp : Format.formatter -> unit -> unit
(** Human-readable snapshot for the CLI session footer; histograms render
    count/mean/approximate p50/p95. *)
