(** A set of instruction ids ({!Runtime.Instr.to_int}), as a bitset
    indexed by id plus the members in insertion order: membership and
    insertion do no hashing, and union and clear cost O(members).  Used
    for branch coverage, the shared queue's per-address sites and the
    sites each seed touched. *)

type t

val create : unit -> t

val add : t -> int -> bool
(** Insert an id; [true] when it was not yet a member.
    @raise Invalid_argument on a negative id. *)

val mem : t -> int -> bool
val count : t -> int

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the members in ascending order. *)

val union_into : src:t -> t -> unit
(** Add every member of [src] to the destination: O(|src|), with a write
    only for ids the destination lacks. *)

val clear : t -> unit
(** Empty the set in O(members), keeping its capacity. *)
