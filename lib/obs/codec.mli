(** Two-way JSON codecs: each record is declared once, as a list of named
    fields with their getters, and that one declaration both encodes and
    decodes it.

    Encoding writes fields in declaration order and never drops one: an
    absent option is written as [null].  Decoding looks fields up by name
    (extra fields are ignored), returns [Error] on a missing field or a
    value of the wrong shape, and never raises.  Errors carry the path to
    the offending value, e.g.
    [provenance[12].seed[0][3].key: expected int].

    A field added to a record after its format shipped is declared with
    [~default]: older documents that lack it (or hold [null]) decode to
    the default.  A value moved into a shared table ({!tabled}) after
    its format shipped still decodes inline from documents without the
    table.  So format versions differ only in defaults and in where a
    tabled value is stored, never in decoder branches. *)

type 'a t

val encode : 'a t -> 'a -> Json.t
val decode : 'a t -> Json.t -> ('a, string) result

(** {2 Values} *)

val int : int t
(** Decodes [Int] and integral in-range [Float] ({!Json.to_int}). *)

val float : float t
(** Decodes [Float] and [Int]. *)

val string : string t
val bool : bool t

val json : Json.t t
(** Any value, verbatim. *)

val list : 'a t -> 'a list t

val option : 'a t -> 'a option t
(** [None] is [null]. *)

val conv : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a t -> 'b t
(** [conv of_repr to_repr repr]: a value stored as [repr].  [of_repr]
    validates (or registers) on decode; its [Error] becomes a decode
    error at the value's path. *)

val enum : (string * 'a) list -> 'a t
(** Constant constructors written as their names. *)

(** {2 Records}

    {[
      obj
        (record (fun campaign hits -> { campaign; hits })
        |+ field "campaign" int (fun r -> r.campaign)
        |+ field ~default:0 "hits" int (fun r -> r.hits))
    ]} *)

type ('r, 'a) field
(** Part of the JSON object for an ['r], yielding an ['a] on decode. *)

type ('r, 'c) fields = ('r, 'c) field
(** A record under construction: ['c] is the constructor's remaining
    type. *)

val field : ?default:'a -> string -> 'a t -> ('r -> 'a) -> ('r, 'a) field
(** A named field.  With [default], a missing or [null] field decodes to
    it; without, the field is required. *)

val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option) field
(** A nullable field: [null] when [None]; missing or [null] decodes to
    [None]. *)

val inline : ('a, 'a) fields -> ('r -> 'a) -> ('r, 'a) field
(** Splice a shared group of fields into this object. *)

val record : 'c -> ('r, 'c) fields
val ( |+ ) : ('r, 'a -> 'c) fields -> ('r, 'a) field -> ('r, 'c) fields

val obj : ('r, 'r) fields -> 'r t
(** The JSON object with the record's fields, in declaration order. *)

(** {2 Variants} *)

type 'a case

val case : string -> ('b, 'b) fields -> ('a -> 'b option) -> ('b -> 'a) -> 'a case
(** [case tag payload proj inj]: the values [proj] accepts, written as an
    object whose tag field holds [tag], followed by [payload]'s fields. *)

val constant : string -> 'a -> 'a case
(** [constant tag c]: a case with no payload for [c], a constant
    constructor (matched by physical equality). *)

val variant : string -> 'a case list -> 'a t
(** [variant tag_field cases]: encodes with the first case whose [proj]
    accepts the value (every value must have one); decodes by the tag
    field. *)

(** {2 Tables} *)

val tabled :
  string -> hash:('a -> int) -> equal:('a -> 'a -> bool) -> 'a t -> ('a t -> 'r t) -> 'r t
(** [tabled name ~hash ~equal elt body]: [body entry]'s object followed
    by a field [name] that lists, as [elt] writes them, the distinct
    values [entry] wrote, in order of first appearance; [entry] writes
    each value as its index there.  Values are interned by content:
    [hash] picks a bucket and [equal] confirms a match, so a hash
    collision never merges two values.  Decoding reads the table once,
    and every reference to one index yields the same (physically equal)
    value.  A document without the field, written before the table
    existed, holds the values inline and decodes as it always did, so
    [elt] must not decode an int, which would read as a reference.  A
    reference outside the table, or one in a document without a table,
    is an error at the reference's path.

    {[
      tabled "seeds" ~hash ~equal Seed.codec (fun seed ->
          obj (record ... |+ field "seed" seed (fun r -> r.seed)))
    ]} *)
