(** Taint label sets for the dynamic data-flow analysis of durable side
    effects (§4.3 of the paper).

    A label is the id of an inconsistency {e candidate} (a load that
    observed non-persisted data); labels propagate through arithmetic on
    {!Tval.t} values and are checked when a value (or an address derived
    from one) reaches a PM store. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val add : int -> t -> t
(** [add l t] is a constant-time cons when [l] is larger than every label
    of [t] (the label of the newest candidate always is); any other label
    is inserted in place. *)

val union : t -> t -> t
(** Shares structure with its operands: when one operand already holds
    the other, that operand is returned physically ([union a a == a]). *)

val mem : int -> t -> bool

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] applies [f] to the labels in strictly {e decreasing}
    order, newest first, building no list. *)

val labels : t -> int list
(** Labels in strictly increasing order. *)

val of_labels : int list -> t
val cardinal : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
