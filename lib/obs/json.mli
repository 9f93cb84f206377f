(** Hand-rolled JSON values: the serialization substrate for session
    artifacts, trace events, and metric snapshots.  No external
    dependencies — the encoder and the recursive-descent parser together
    are a few hundred lines, which is all this project needs (artifacts
    are written and read back by the same code).

    Numbers: integral literals decode to {!Int}, anything with a fraction
    or exponent to {!Float}.  The printer renders non-finite floats as
    [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; [minify:false] (the default) pretty-prints with 2-space
    indentation so artifacts are diffable. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse one JSON document (trailing whitespace allowed).  Errors carry
    the byte offset. *)

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]. *)

val to_int : t -> int option
(** Accepts [Int], and [Float] when integral and within
    [[min_int, max_int]]. *)

val to_float : t -> float option
(** Accepts [Float] and [Int]. *)

val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
