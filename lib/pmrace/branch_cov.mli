(** Conventional branch coverage over instrumented branch sites; combined
    with {!Alias_cov} as fuzzing feedback (§4.2.3). *)

type t

val create : unit -> t
val observe : t -> Runtime.Instr.t -> bool
(** Returns [true] the first time a site is seen. *)

val count : t -> int
val covered : t -> Runtime.Instr.t -> bool

val merge_into : src:t -> t -> unit
(** Union [src] (a worker's per-campaign delta) into a shared map, in
    O(|src|).  Not itself synchronised — callers serialise merges. *)

val clear : t -> unit
(** Empty the map so a worker-local delta can be reused across campaigns. *)

val codec : t Obs.Codec.t
(** Wire/store codec (fleet mode): covered branch sites by name, sorted;
    decoding re-registers them via {!Runtime.Instr.site}. *)
