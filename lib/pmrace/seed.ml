(* Fuzzing inputs: operation sequences distributed over worker threads.

   PM systems are in-memory stores with interactive APIs, so PMRace's input
   generator works at the granularity of *operations* rather than raw bytes
   (§4.5).  A seed assigns each worker thread a sequence of operations; the
   driver threads replay them concurrently. *)

module Rng = Sched.Rng

type op =
  | Put of { key : int; value : int }
  | Get of { key : int }
  | Update of { key : int; value : int }
  | Delete of { key : int }
  | Incr of { key : int; delta : int }
  | Decr of { key : int; delta : int }
  | Append of { key : int; value : int }
  | Prepend of { key : int; value : int }
  | Scan of { key : int; count : int }
  | Cas of { key : int; value : int; token : int }
  | Touch of { key : int; exptime : int }
  | Flush_all
  | Stats

type op_kind =
  | KPut
  | KGet
  | KUpdate
  | KDelete
  | KIncr
  | KDecr
  | KAppend
  | KPrepend
  | KScan
  | KCas
  | KTouch
  | KFlushAll
  | KStats

let kind_of_op = function
  | Put _ -> KPut
  | Get _ -> KGet
  | Update _ -> KUpdate
  | Delete _ -> KDelete
  | Incr _ -> KIncr
  | Decr _ -> KDecr
  | Append _ -> KAppend
  | Prepend _ -> KPrepend
  | Scan _ -> KScan
  | Cas _ -> KCas
  | Touch _ -> KTouch
  | Flush_all -> KFlushAll
  | Stats -> KStats

type profile = {
  supported : op_kind list;
  key_range : int;
  value_range : int;
  threads : int;
  ops_per_thread : int;
}

let default_profile =
  {
    supported = [ KPut; KGet; KUpdate; KDelete ];
    key_range = 32;
    value_range = 1000;
    threads = 4;
    ops_per_thread = 6;
  }

type t = {
  sid : int;
  threads : op array array;
  (* Static-analysis priority: how many uncovered statically-possible
     alias pairs this seed's executions have touched.  Written by the
     fuzzer after each campaign; higher-priority seeds are preferred as
     mutation parents. *)
  mutable priority : int;
  (* [fingerprint], computed on first use: the hub salts every POR
     campaign's trace hash with it inside its critical section. *)
  mutable fp : int64 option;
}

let key_of = function
  | Put { key; _ }
  | Get { key }
  | Update { key; _ }
  | Delete { key }
  | Incr { key; _ }
  | Decr { key; _ }
  | Append { key; _ }
  | Prepend { key; _ }
  | Scan { key; _ }
  | Cas { key; _ }
  | Touch { key; _ } -> key
  | Flush_all | Stats -> 0

let gen_op rng profile ~near =
  let key =
    (* Prioritise keys similar to already-used ones: shared accesses and PM
       alias pairs need threads to collide on the same data (§4.5). *)
    match near with
    | Some k when Rng.int rng 100 < 70 ->
        (k + Rng.int rng 3 - 1 + profile.key_range) mod profile.key_range
    | Some _ | None -> Rng.int rng profile.key_range
  in
  let value = 1 + Rng.int rng profile.value_range in
  match Rng.pick rng profile.supported with
  | KPut -> Put { key; value }
  | KGet -> Get { key }
  | KUpdate -> Update { key; value }
  | KDelete -> Delete { key }
  | KIncr -> Incr { key; delta = 1 + Rng.int rng 9 }
  | KDecr -> Decr { key; delta = 1 + Rng.int rng 9 }
  | KAppend -> Append { key; value }
  | KPrepend -> Prepend { key; value }
  | KScan -> Scan { key; count = 1 + Rng.int rng 7 }
  | KCas -> Cas { key; value; token = Rng.int rng 1000 }
  | KTouch -> Touch { key; exptime = Rng.int rng 100 }
  | KFlushAll -> Flush_all
  | KStats -> Stats

(* Seed ids key per-worker scratch tables (skip stores, touched-site maps)
   and appear in reproduction provenance, so they must stay unique when
   several worker domains generate seeds concurrently (§5). *)
let seed_counter = Atomic.make 0

let make threads =
  { sid = 1 + Atomic.fetch_and_add seed_counter 1; threads; priority = 0; fp = None }

let gen rng profile =
  let near = ref None in
  let gen_thread _ =
    Array.init profile.ops_per_thread (fun _ ->
        let op = gen_op rng profile ~near:!near in
        near := Some (key_of op);
        op)
  in
  make (Array.init profile.threads gen_thread)

let threads t = t.threads
let all_ops t = Array.to_list t.threads |> List.concat_map Array.to_list
let op_count t = Array.fold_left (fun n ops -> n + Array.length ops) 0 t.threads
let id t = t.sid
let priority t = t.priority
let set_priority t p = t.priority <- p

(* Text rendering in the memcached protocol, used by the driver of
   memcached-pmem and by the Table 4 mutator comparison. *)
let render_op = function
  | Put { key; value } ->
      let data = string_of_int value in
      Printf.sprintf "set k%d 0 0 %d\r\n%s\r\n" key (String.length data) data
  | Get { key } -> Printf.sprintf "get k%d\r\n" key
  | Update { key; value } ->
      let data = string_of_int value in
      Printf.sprintf "replace k%d 0 0 %d\r\n%s\r\n" key (String.length data) data
  | Delete { key } -> Printf.sprintf "delete k%d\r\n" key
  | Incr { key; delta } -> Printf.sprintf "incr k%d %d\r\n" key delta
  | Decr { key; delta } -> Printf.sprintf "decr k%d %d\r\n" key delta
  | Append { key; value } ->
      let data = string_of_int value in
      Printf.sprintf "append k%d 0 0 %d\r\n%s\r\n" key (String.length data) data
  | Prepend { key; value } ->
      let data = string_of_int value in
      Printf.sprintf "prepend k%d 0 0 %d\r\n%s\r\n" key (String.length data) data
  | Scan { key; count } -> Printf.sprintf "bget k%d %d\r\n" key count
  | Cas { key; value; token } ->
      let data = string_of_int value in
      Printf.sprintf "cas k%d 0 0 %d %d\r\n%s\r\n" key (String.length data) token data
  | Touch { key; exptime } -> Printf.sprintf "touch k%d %d\r\n" key exptime
  | Flush_all -> "flush_all\r\n"
  | Stats -> "stats\r\n" 

(* Content fingerprint: a 64-bit FNV-1a over the rendered operation text,
   with thread boundaries folded in explicitly so [ [|a; b|] ] and
   [ [|a ^ b|] ] cannot collide by concatenation.  The hash depends only
   on the operations themselves — never on seed ids, Instr site-id layout
   or any other per-process state — so the same seed content hashes
   identically in every worker process.  The fleet corpus store keys
   entries by this value.  A seed's operations never change after [make],
   so the hash is cached; two domains racing to fill the cache store the
   same value. *)
let content_hash t =
  let open Int64 in
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let feed_byte b = h := mul (logxor !h (of_int b)) prime in
  let feed_string s = String.iter (fun c -> feed_byte (Char.code c)) s in
  Array.iter
    (fun ops ->
      feed_byte 0xFE (* thread separator *);
      Array.iter
        (fun op ->
          feed_byte 0xFD (* op separator *);
          feed_string (render_op op))
        ops)
    t.threads;
  !h

let fingerprint t =
  match t.fp with
  | Some h -> h
  | None ->
      let h = content_hash t in
      t.fp <- Some h;
      h

(* The JSON form shared by artifacts, wire frames and the fleet store:
   one list of ops per thread, each op an object tagged by "op". *)
let op_codec =
  let open Obs.Codec in
  let key = record Fun.id |+ field "key" int Fun.id in
  let key_and name = record (fun k v -> (k, v)) |+ field "key" int fst |+ field name int snd in
  variant "op"
    [
      case "put" (key_and "value")
        (function Put { key; value } -> Some (key, value) | _ -> None)
        (fun (key, value) -> Put { key; value });
      case "get" key (function Get { key } -> Some key | _ -> None) (fun key -> Get { key });
      case "update" (key_and "value")
        (function Update { key; value } -> Some (key, value) | _ -> None)
        (fun (key, value) -> Update { key; value });
      case "delete" key (function Delete { key } -> Some key | _ -> None) (fun key -> Delete { key });
      case "incr" (key_and "delta")
        (function Incr { key; delta } -> Some (key, delta) | _ -> None)
        (fun (key, delta) -> Incr { key; delta });
      case "decr" (key_and "delta")
        (function Decr { key; delta } -> Some (key, delta) | _ -> None)
        (fun (key, delta) -> Decr { key; delta });
      case "append" (key_and "value")
        (function Append { key; value } -> Some (key, value) | _ -> None)
        (fun (key, value) -> Append { key; value });
      case "prepend" (key_and "value")
        (function Prepend { key; value } -> Some (key, value) | _ -> None)
        (fun (key, value) -> Prepend { key; value });
      case "scan" (key_and "count")
        (function Scan { key; count } -> Some (key, count) | _ -> None)
        (fun (key, count) -> Scan { key; count });
      case "cas"
        (record (fun key value token -> (key, value, token))
        |+ field "key" int (fun (k, _, _) -> k)
        |+ field "value" int (fun (_, v, _) -> v)
        |+ field "token" int (fun (_, _, t) -> t))
        (function Cas { key; value; token } -> Some (key, value, token) | _ -> None)
        (fun (key, value, token) -> Cas { key; value; token });
      case "touch" (key_and "exptime")
        (function Touch { key; exptime } -> Some (key, exptime) | _ -> None)
        (fun (key, exptime) -> Touch { key; exptime });
      constant "flush_all" Flush_all;
      constant "stats" Stats;
    ]

let codec =
  Obs.Codec.(
    conv
      (fun threads -> Ok (make (Array.of_list (List.map Array.of_list threads))))
      (fun t -> Array.to_list (Array.map Array.to_list t.threads))
      (list (list op_codec)))

let pp_op ppf op =
  match op with
  | Put { key; value } -> Fmt.pf ppf "put(%d,%d)" key value
  | Get { key } -> Fmt.pf ppf "get(%d)" key
  | Update { key; value } -> Fmt.pf ppf "update(%d,%d)" key value
  | Delete { key } -> Fmt.pf ppf "delete(%d)" key
  | Incr { key; delta } -> Fmt.pf ppf "incr(%d,%d)" key delta
  | Decr { key; delta } -> Fmt.pf ppf "decr(%d,%d)" key delta
  | Append { key; value } -> Fmt.pf ppf "append(%d,%d)" key value
  | Prepend { key; value } -> Fmt.pf ppf "prepend(%d,%d)" key value
  | Scan { key; count } -> Fmt.pf ppf "scan(%d,%d)" key count
  | Cas { key; value; token } -> Fmt.pf ppf "cas(%d,%d,%d)" key value token
  | Touch { key; exptime } -> Fmt.pf ppf "touch(%d,%d)" key exptime
  | Flush_all -> Fmt.pf ppf "flush_all"
  | Stats -> Fmt.pf ppf "stats" 

let pp ppf t =
  Fmt.pf ppf "seed#%d" t.sid;
  Array.iteri (fun i ops -> Fmt.pf ppf " t%d:[%a]" i Fmt.(array ~sep:comma pp_op) ops) t.threads
