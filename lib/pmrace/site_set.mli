(** A set of instruction ids ({!Runtime.Instr.to_int}), as a bitset
    indexed by id: membership and insertion do no hashing.  Used for
    branch coverage and for the sites each seed touched. *)

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

val clear : t -> unit
(** Empty the set, keeping its capacity. *)

val access_handler : t ref -> Runtime.Env.event -> unit
(** Record the site of every PM access (load, store, movnt) into the set
    the reference points at: the fuzz worker's bound seed-site recorder. *)
