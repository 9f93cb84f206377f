(** Tainted 64-bit values — the shadow values of the dynamic taint
    analysis.  Arithmetic unions operand taints; comparisons look only at
    the numeric value (control-flow taint is out of scope, as it is for
    DataFlowSanitizer). *)

type t

val make : int64 -> Taint.t -> t
val of_int64 : int64 -> t
val of_int : int -> t
val zero : t
val one : t

val v : t -> int64
val to_int : t -> int
val taint : t -> Taint.t
val is_tainted : t -> bool
val with_taint : t -> Taint.t -> t
val add_taint : t -> Taint.t -> t
val untainted : t -> t
(** Strip taint: models an explicit sanitisation point (e.g. data validated
    against a checksum). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val equal_v : t -> t -> bool
val is_zero : t -> bool
val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
