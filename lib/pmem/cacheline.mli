(** Cache-line geometry of the simulated persistent-memory device.

    Addresses throughout the simulator are {e word offsets} into the pool
    (one word = 8 bytes); a cache line groups eight consecutive words,
    mirroring the 64-byte granularity of [CLWB]/[CLFLUSHOPT] on x86. *)

val bytes_per_word : int
val words_per_line : int
val bytes_per_line : int

val line_of_word : int -> int
(** [line_of_word w] is the index of the cache line containing word [w]. *)

val first_word_of_line : int -> int
(** [first_word_of_line l] is the lowest word offset inside line [l]. *)

val words_of_line_containing : int -> int list
(** All word offsets sharing a cache line with the given word.
    Reference only: the [test_cacheline] property and the [hotpath] bench
    compare {!iter_line} and {!fold_line} against it.  Program code uses
    those two, which do not allocate. *)

val iter_line : (int -> unit) -> int -> unit
(** [iter_line f w] applies [f] to every word offset of the cache line
    containing [w], in ascending order, without allocating. *)

val fold_line : ('a -> int -> 'a) -> 'a -> int -> 'a
(** [fold_line f init w] folds [f] over the word offsets of the cache line
    containing [w], in ascending order, without allocating a list. *)

val same_line : int -> int -> bool
(** [same_line a b] holds when words [a] and [b] share a cache line. *)
