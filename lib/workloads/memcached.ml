(* memcached-pmem (Lenovo, commit 8f121f6): the memcached key-value store
   with persistent slabs, carrying the paper's bugs 9-14.

   PM layout:
     root [0] free_head class 0   [1] free_head class 1
          [8] lru_head            [9] lru_tail        (lines separated)
     item (16 words, two lines — header and data in separate lines, like
     the real 48-byte header followed by the data block):
       line 0: [0] key  [1] it_flags  [2] slabs_clsid  [3] prev  [4] next
       line 1: [8] value  [9] value2  [10] checksum

   DRAM (rebuilt from slabs after a crash): the hash index (key -> item).

   The LRU list and the slab free lists live in PM but their link fields
   are maintained with *delayed* flushes — the source of the six
   memcached-pmem bugs:
     9/10 (new) memcached.c:4292/4293 -> 2805 : append/prepend read the
       still-unflushed value words and write the combined value.
     11 items.c:423 -> items.c:464 : eviction reads an unflushed prev link
       and clears slabs_clsid of the item it reaches through it.
     12 slabs.c:549 -> slabs.c:412 : allocation pops an item through an
       unflushed free-list next pointer and writes its it_flags.
     13 items.c:1096 -> memcached.c:2824 : replace reads unflushed
       it_flags and stores a value header derived from them.
     14 items.c:627 -> items.c:623 : freeing reads an unflushed
       slabs_clsid and pushes the item onto the free list selected by it.

   Recovery rebuilds the DRAM index and rewrites every linked item's
   prev/next fields from scratch (as the real index/LRU rebuild does),
   which silently fixes the many prev/next inconsistencies — the large
   validated-false-positive count of Table 3.  Reads of checksummed value
   data (the get path) are sanitised after verification, mirroring the
   store's checksum-based crash consistency. *)

module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Env = Runtime.Env
module Proto = Memcached_proto

let ( +$ ) = Tval.add

let item_words = 16
let items_per_class = 12
let nclasses = 2

let r_free c = c (* root word per class *)
let r_lru_head = 8
let r_lru_tail = 9
let root_off field = Tval.of_int (Pmdk.Layout.root_base + field)

(* Item field addresses. *)
let f_key it = it
let f_flags it = it +$ Tval.of_int 1
let f_clsid it = it +$ Tval.of_int 2
let f_prev it = it +$ Tval.of_int 3
let f_next it = it +$ Tval.of_int 4
let f_value it = it +$ Tval.of_int 8
let f_value2 it = it +$ Tval.of_int 9
let f_chk it = it +$ Tval.of_int 10

let flag_linked = 1L

(* Bug sites (Table 2 names). *)
let i_2805 = Instr.site "memcached.c:2805" (* read value in append/prepend *)
let i_4292 = Instr.site "memcached.c:4292" (* write value *)
let i_4293 = Instr.site "memcached.c:4293" (* write value2 *)
let i_423 = Instr.site "items.c:423" (* store prev (unflushed) *)
let i_464 = Instr.site "items.c:464" (* read prev in eviction *)
let i_549 = Instr.site "slabs.c:549" (* store free-list next (unflushed) *)
let i_412 = Instr.site "slabs.c:412" (* read free-list next in alloc *)
let i_1096 = Instr.site "items.c:1096" (* store it_flags (unflushed) *)
let i_2824 = Instr.site "memcached.c:2824" (* read it_flags in replace *)
let i_627 = Instr.site "items.c:627" (* store slabs_clsid (unflushed) *)
let i_623 = Instr.site "items.c:623" (* read slabs_clsid when freeing *)

(* Supporting sites. *)
let i_free_push = Instr.site "slabs.c:free_push"
let i_free_head = Instr.site "slabs.c:free_head"
let i_new_flags = Instr.site "items.c:new_flags"
let i_free_clsid = Instr.site "items.c:free_clsid"
let i_lru_next = Instr.site "items.c:lru_next"
let i_lru_read = Instr.site "items.c:lru_read"
let i_lru_ends = Instr.site "items.c:lru_ends"
let i_store_value = Instr.site "memcached.c:store_value"
let i_chk_write = Instr.site "memcached.c:chk_write"
let i_chk_read = Instr.site "memcached.c:chk_read"
let i_key_write = Instr.site "items.c:key_write"
let i_recover = Instr.site "memcached.c:recover"

(* Branch sites: one per command family (the Table 4 counters) plus
   internal paths. *)
let b_get = Instr.site "memcached:get"
let b_update = Instr.site "memcached:update"
let b_incr = Instr.site "memcached:incr"
let b_decr = Instr.site "memcached:decr"
let b_delete = Instr.site "memcached:delete"
let b_error = Instr.site "memcached:error"
let b_evict = Instr.site "memcached:evict"
let b_alloc = Instr.site "memcached:alloc"
let b_append = Instr.site "memcached:append"
let b_miss = Instr.site "memcached:miss"

let b_other = Instr.site "memcached:other"
let i_touch = Instr.site "items.c:touch"

let family_site = function
  | Proto.F_get -> b_get
  | Proto.F_update -> b_update
  | Proto.F_incr -> b_incr
  | Proto.F_decr -> b_decr
  | Proto.F_delete -> b_delete
  | Proto.F_other -> b_other
  | Proto.F_error -> b_error

(* The DRAM hash index, rebuilt from slabs after a crash. *)
let index_key : (int, int) Hashtbl.t Runtime.Dram.key = Runtime.Dram.key ~name:"memcached-index" ()
let index (ctx : Env.ctx) =
  Runtime.Dram.find_or_add ctx.Env.env.Env.dram index_key (fun () -> Hashtbl.create 64)

let checksum key value = Int64.logxor (Int64.of_int (key * 2654435761)) value

(* --- slab allocator ------------------------------------------------- *)

let init (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-1) in
  (* memcached-pmem maps its pool with pmem_map_file (libpmem), not
     libpmemobj.  On real hardware that is why in-memory checkpoints do
     not speed it up; here initialisation runs through the hooks like any
     other target's, so it is checkpointed too. *)
  Pmdk.Pmem_low.map ctx;
  Pmdk.Heap.format ctx ~pool_words:(Pmem.Pool.size env.pool);
  (* Carve the item arena and thread every item onto its class free
     list. *)
  for c = 0 to nclasses - 1 do
    let head = ref 0 in
    for _ = 1 to items_per_class do
      let it = Pmdk.Heap.alloc ctx ~words:item_words in
      Mem.store ctx ~instr:i_free_push (Tval.of_int (it + 4)) (Tval.of_int !head);
      Mem.store ctx ~instr:i_free_push (Tval.of_int (it + 2)) (Tval.of_int c);
      Mem.persist ctx ~instr:i_free_push (Tval.of_int it);
      head := it
    done;
    Mem.store ctx ~instr:i_free_head (root_off (r_free c)) (Tval.of_int !head);
    Mem.persist ctx ~instr:i_free_head (root_off (r_free c))
  done

let annotate (_ : Env.t) = () (* no persistent synchronization variables *)

let class_of_value v = if Int64.to_int v < 500 then 0 else 1

(* Free an item: bug 14's pattern.  The class is read from the (possibly
   unflushed) slabs_clsid (623); the item goes onto the free list selected
   by that tainted class; its own slabs_clsid is cleared without a flush
   (627). *)
let item_free ctx it =
  let clsid = Mem.load ctx ~instr:i_623 (f_clsid it) in
  let cls = Tval.to_int clsid land (nclasses - 1) in
  Mem.store ctx ~instr:i_627 (f_clsid it) Tval.zero;
  (* free-list push through the tainted class (the durable side effect of
     bug 14): head and next writes address the list chosen by clsid *)
  let head_addr = root_off (r_free cls) |> fun a -> Tval.add_taint a (Tval.taint clsid) in
  let rec push () =
    let head = Mem.load ctx ~instr:i_412 head_addr in
    (* 549: the free-list next pointer, stored without a flush. *)
    Mem.store ctx ~instr:i_549 (f_next it) head;
    if not (Mem.cas ctx ~instr:i_free_push head_addr ~expect:(Tval.untainted head) ~value:it)
    then push ()
  in
  push ();
  Mem.persist ctx ~instr:i_free_push head_addr

(* Pop an item from a free list: bug 12's pattern.  The next pointer read
   (412) may be unflushed (just pushed by another thread at 549); the item
   it designates gets its it_flags written (the durable side effect). *)
let rec item_alloc ctx cls =
  Mem.branch ctx ~instr:b_alloc;
  let head_addr = root_off (r_free cls) in
  let head = Mem.load ctx ~instr:i_412 head_addr in
  if Tval.is_zero head then None
  else begin
    (* 412: read the free-list successor — possibly non-persisted. *)
    let next = Mem.load ctx ~instr:i_412 (f_next head) in
    if Mem.cas ctx ~instr:i_free_head head_addr ~expect:(Tval.untainted head) ~value:next
    then begin
      (* The popped item is addressed through the (tainted) head; writing
         its flags is bug 12's durable side effect when head came from an
         unflushed next. *)
      Mem.store ctx ~instr:i_new_flags (f_flags head) Tval.zero;
      Mem.persist ctx ~instr:i_new_flags (f_flags head);
      Some head
    end
    else item_alloc ctx cls
  end

(* --- LRU (persistent links, delayed flushes) ------------------------ *)

let lru_link ctx it =
  let head = Mem.load ctx ~instr:i_lru_read (root_off r_lru_head) in
  Mem.store ctx ~instr:i_lru_next (f_next it) head;
  Mem.store ctx ~instr:i_lru_next (f_prev it) Tval.zero;
  if not (Tval.is_zero head) then
    (* 423: the previous head's prev pointer, stored without a flush. *)
    Mem.store ctx ~instr:i_423 (f_prev (Tval.untainted head)) it;
  Mem.store ctx ~instr:i_lru_ends (root_off r_lru_head) it;
  if Tval.is_zero (Mem.load ctx ~instr:i_lru_read (root_off r_lru_tail)) then
    Mem.store ctx ~instr:i_lru_ends (root_off r_lru_tail) it;
  Mem.persist ctx ~instr:i_lru_ends (root_off r_lru_head)

(* Evict the LRU tail: bug 11's pattern — the tail's prev link (464) may
   be unflushed; the item reached through it gets durable writes. *)
let lru_evict ctx =
  Mem.branch ctx ~instr:b_evict;
  let tail = Mem.load ctx ~instr:i_lru_read (root_off r_lru_tail) in
  if Tval.is_zero tail then None
  else begin
    (* 464: read the (possibly non-persisted) prev pointer. *)
    let prev = Mem.load ctx ~instr:i_464 (f_prev tail) in
    Mem.store ctx ~instr:i_lru_ends (root_off r_lru_tail) prev;
    if not (Tval.is_zero prev) then begin
      (* The durable side effect through the tainted prev: the new tail's
         next link and its slabs_clsid tail-marker bit — the
         "write slabs_clsid" of bug 11, which the index rebuild does NOT
         repair. *)
      Mem.store ctx ~instr:i_lru_next (f_next prev) Tval.zero;
      Mem.persist ctx ~instr:i_lru_next (f_next prev);
      let cls = Mem.load ctx ~instr:i_lru_read (f_clsid prev) in
      Mem.store ctx ~instr:i_free_clsid (f_clsid prev) (Tval.logor cls (Tval.of_int 256));
      Mem.persist ctx ~instr:i_free_clsid (f_clsid prev)
    end
    else begin
      Mem.store ctx ~instr:i_lru_ends (root_off r_lru_head) Tval.zero;
      Mem.persist ctx ~instr:i_lru_ends (root_off r_lru_head)
    end;
    let key = Mem.load ctx ~instr:i_lru_read (f_key tail) in
    Hashtbl.remove (index ctx) (Tval.to_int key - 1);
    item_free ctx (Tval.untainted tail);
    Some tail
  end

(* --- commands -------------------------------------------------------- *)

let find ctx key =
  match Hashtbl.find_opt (index ctx) key with
  | Some off -> Some (Tval.of_int off)
  | None -> None

let rec alloc_or_evict ctx cls tries =
  match item_alloc ctx cls with
  | Some it -> Some it
  | None ->
      if tries > items_per_class then None
      else begin
        ignore (lru_evict ctx);
        alloc_or_evict ctx cls (tries + 1)
      end

(* Store a brand-new item (set / add path).  Values are written at
   4292/4293 and their flush is delayed until after the item is linked —
   bugs 9/10's window. *)
let store_new ctx key value =
  let cls = class_of_value (Tval.v value) in
  match alloc_or_evict ctx cls 0 with
  | None -> ()
  | Some it ->
      (* 4292/4293: the value words, visible but not yet flushed. *)
      Mem.store ctx ~instr:i_4292 (f_value it) value;
      Mem.store ctx ~instr:i_4293 (f_value2 it) value;
      Mem.store ctx ~instr:i_key_write (f_key it) (Tval.of_int (key + 1));
      (* 627: slabs_clsid, stored without a flush (bug 14's write). *)
      Mem.store ctx ~instr:i_627 (f_clsid it) (Tval.of_int cls);
      (* 1096: it_flags marking the item linked, unflushed (bug 13's
         write). *)
      Mem.store ctx ~instr:i_1096 (f_flags it) (Tval.of_int64 flag_linked);
      lru_link ctx it;
      Hashtbl.replace (index ctx) key (Tval.to_int it);
      (* Stats bookkeeping keeps the window open: the item is already
         visible through the index, its value/flags not yet flushed. *)
      for i = 0 to 3 do
        ignore (Mem.load ctx ~instr:i_lru_read (root_off (r_free (i land 1))))
      done;
      (* The checksum write persists the data line — the header fields
         (it_flags, slabs_clsid, prev) are never flushed here: the missing
         flushes behind bugs 11, 13 and 14. *)
      Mem.store ctx ~instr:i_chk_write (f_chk it)
        (Tval.of_int64 (checksum key (Tval.v value)));
      Mem.persist ctx ~instr:i_chk_write (f_chk it)

(* Replace path: bug 13 — it_flags are read (2824) possibly unflushed and
   a value header derived from them is stored. *)
let store_replace ctx it value =
  let flags = Mem.load ctx ~instr:i_2824 (f_flags it) in
  (* The stored header derives from the flags (value | flags<<8). *)
  let header = Tval.logor value (Tval.shift_left flags 8) in
  Mem.store ctx ~instr:i_store_value (f_value it) header;
  Mem.store ctx ~instr:i_4293 (f_value2 it) value;
  Mem.persist ctx ~instr:i_store_value (f_value it)

(* Append/prepend: bugs 9/10 — as in real memcached, the concatenation
   allocates a NEW item, reads the current value words (2805) — possibly
   unflushed — and writes the combination into the new item (4292/4293),
   which is persisted immediately. *)
let store_concat ctx key it value ~prepend =
  Mem.branch ctx ~instr:b_append;
  let old = Mem.load ctx ~instr:i_2805 (f_value it) in
  let old2 = Mem.load ctx ~instr:i_2805 (f_value2 it) in
  let combined =
    if prepend then Tval.add (Tval.mul value (Tval.of_int 1000)) old else Tval.add old value
  in
  let combined2 = Tval.add old2 value in
  let cls = class_of_value (Tval.v combined) in
  match alloc_or_evict ctx cls 0 with
  | None -> ()
  | Some nit ->
      Mem.store ctx ~instr:i_4292 (f_value nit) combined;
      Mem.store ctx ~instr:i_4293 (f_value2 nit) combined2;
      Mem.store ctx ~instr:i_key_write (f_key nit) (Tval.of_int (key + 1));
      Mem.store ctx ~instr:i_627 (f_clsid nit) (Tval.of_int cls);
      Mem.store ctx ~instr:i_1096 (f_flags nit) (Tval.of_int64 flag_linked);
      Mem.clwb ctx ~instr:i_4292 (f_value nit);
      Mem.sfence ctx ~instr:i_4292;
      lru_link ctx nit;
      Hashtbl.replace (index ctx) key (Tval.to_int nit);
      (* Unlink and free the superseded item. *)
      Mem.store ctx ~instr:i_1096 (f_flags it) Tval.zero;
      item_free ctx (Tval.untainted it)

(* Get: the value is verified against its checksum before use, which
   sanitises the read (the checksum-based crash consistency the default
   whitelist refers to). *)
let get_value ctx key it =
  let v = Mem.load ctx ~instr:i_chk_read (f_value it) in
  let chk = Mem.load ctx ~instr:i_chk_read (f_chk it) in
  if Int64.equal (Tval.v chk) (checksum key (Tval.v v)) then Some (Tval.untainted v)
  else Some v (* checksum mismatch: the raw (possibly inconsistent) value *)

let do_get ctx keys =
  List.iter
    (fun k ->
      match Proto.key_int k with
      | None -> Mem.branch ctx ~instr:b_error
      | Some key -> (
          match find ctx key with
          | Some it -> ignore (get_value ctx key it)
          | None -> Mem.branch ctx ~instr:b_miss))
    keys

let do_store ctx (s : Proto.storage) ~mode =
  match Proto.key_int s.key with
  | None -> Mem.branch ctx ~instr:b_error
  | Some key -> (
      let value = Tval.of_int ((s.flags * 1000) + String.length s.data + (key * 7)) in
      let existing = find ctx key in
      match (mode, existing) with
      | `Set, Some it | `Replace, Some it -> store_replace ctx it value
      | (`Set | `Add), None -> store_new ctx key value
      | `Add, Some _ | `Replace, None -> Mem.branch ctx ~instr:b_miss
      | (`Append | `Prepend), None -> Mem.branch ctx ~instr:b_miss
      | `Append, Some it -> store_concat ctx key it value ~prepend:false
      | `Prepend, Some it -> store_concat ctx key it value ~prepend:true)

let do_delta ctx key delta ~up =
  match Proto.key_int key with
  | None -> Mem.branch ctx ~instr:b_error
  | Some key -> (
      match find ctx key with
      | None -> Mem.branch ctx ~instr:b_miss
      | Some it ->
          let v =
            match get_value ctx key it with Some v -> v | None -> Tval.zero
          in
          let nv = if up then Tval.add v (Tval.of_int delta) else Tval.sub v (Tval.of_int delta) in
          Mem.store ctx ~instr:i_4292 (f_value it) nv;
          Mem.store ctx ~instr:i_chk_write (f_chk it)
            (Tval.of_int64 (checksum key (Tval.v nv)));
          Mem.persist ctx ~instr:i_chk_write (f_chk it))

let do_delete ctx key =
  match Proto.key_int key with
  | None -> Mem.branch ctx ~instr:b_error
  | Some key -> (
      match find ctx key with
      | None -> Mem.branch ctx ~instr:b_miss
      | Some it ->
          Hashtbl.remove (index ctx) key;
          (* Unlink from the LRU: prev/next neighbours rewritten with the
             423-style delayed flush. *)
          let prev = Mem.load ctx ~instr:i_464 (f_prev it) in
          let next = Mem.load ctx ~instr:i_lru_read (f_next it) in
          (if Tval.is_zero prev then
             Mem.store ctx ~instr:i_lru_ends (root_off r_lru_head) next
           else begin
             Mem.store ctx ~instr:i_lru_next (f_next prev) next;
             Mem.persist ctx ~instr:i_lru_next (f_next prev)
           end);
          (if Tval.is_zero next then begin
             Mem.store ctx ~instr:i_lru_ends (root_off r_lru_tail) prev;
             if not (Tval.is_zero prev) then begin
               (* The new tail's slabs_clsid tail-marker, addressed through
                  the possibly non-persisted prev (bug 11). *)
               let cls = Mem.load ctx ~instr:i_lru_read (f_clsid prev) in
               Mem.store ctx ~instr:i_free_clsid (f_clsid prev)
                 (Tval.logor cls (Tval.of_int 256));
               Mem.persist ctx ~instr:i_free_clsid (f_clsid prev)
             end
           end
           else begin
             Mem.store ctx ~instr:i_423 (f_prev next) prev;
             Mem.persist ctx ~instr:i_423 (f_prev next)
           end);
          item_free ctx (Tval.untainted it))

(* cas: compare-and-store against the item's checksum token; a mismatch is
   a miss.  The matching path is the replace path (bug 13's window). *)
let do_cas ctx (s : Proto.storage) token =
  match Proto.key_int s.key with
  | None -> Mem.branch ctx ~instr:b_error
  | Some key -> (
      match find ctx key with
      | None -> Mem.branch ctx ~instr:b_miss
      | Some it ->
          let chk = Mem.load ctx ~instr:i_chk_read (f_chk it) in
          if Int64.rem (Tval.v chk) 1000L = Int64.of_int (token mod 1000) then
            store_replace ctx it (Tval.of_int ((s.flags * 1000) + String.length s.data))
          else Mem.branch ctx ~instr:b_miss)

(* touch: rewrites the exptime bits of it_flags — yet another header-field
   store without a flush, in keeping with memcached-pmem's style. *)
let do_touch ctx key exptime =
  match Proto.key_int key with
  | None -> Mem.branch ctx ~instr:b_error
  | Some key -> (
      match find ctx key with
      | None -> Mem.branch ctx ~instr:b_miss
      | Some it ->
          let flags = Mem.load ctx ~instr:i_2824 (f_flags it) in
          Mem.store ctx ~instr:i_touch (f_flags it)
            (Tval.logor (Tval.logand flags (Tval.of_int 0xff))
               (Tval.of_int (exptime lsl 16))))

let do_flush_all ctx =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) (index ctx) [] in
  List.iter (fun k -> do_delete ctx (Printf.sprintf "k%d" k)) keys

(* stats: read-only walk over the slab classes. *)
let do_stats ctx =
  for c = 0 to nclasses - 1 do
    ignore (Mem.load ctx ~instr:i_lru_read (root_off (r_free c)))
  done

(* The process_command entry point: parse, count the family branch,
   dispatch. *)
let process_command ctx raw =
  match Proto.parse raw with
  | Error _ ->
      Mem.branch ctx ~instr:b_error;
      Proto.F_error
  | Ok cmd -> (
      let fam = Proto.family_of cmd in
      Mem.branch ctx ~instr:(family_site fam);
      (match cmd with
      | Proto.Cmd_get keys | Proto.Cmd_bget keys | Proto.Cmd_gets keys -> do_get ctx keys
      | Proto.Cmd_set s -> do_store ctx s ~mode:`Set
      | Proto.Cmd_add s -> do_store ctx s ~mode:`Add
      | Proto.Cmd_replace s -> do_store ctx s ~mode:`Replace
      | Proto.Cmd_append s -> do_store ctx s ~mode:`Append
      | Proto.Cmd_prepend s -> do_store ctx s ~mode:`Prepend
      | Proto.Cmd_cas { store = s; token } -> do_cas ctx s token
      | Proto.Cmd_touch { key; exptime } -> do_touch ctx key exptime
      | Proto.Cmd_incr { key; delta } -> do_delta ctx key delta ~up:true
      | Proto.Cmd_decr { key; delta } -> do_delta ctx key delta ~up:false
      | Proto.Cmd_delete { key } -> do_delete ctx key
      | Proto.Cmd_flush_all -> do_flush_all ctx
      | Proto.Cmd_stats -> do_stats ctx
      | Proto.Cmd_verbosity _ -> ());
      fam)

let run_op ctx op = ignore (process_command ctx (Pmrace.Seed.render_op op))

(* Recovery: rebuild the DRAM index and the LRU from the persistent slabs
   — rewriting every linked item's prev/next (the index rebuild that turns
   the many link inconsistencies into validated false positives). *)
let recover (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-2) in
  let prev_linked = ref Tval.zero in
  let first = ref Tval.zero in
  for slot = 0 to (nclasses * items_per_class) - 1 do
    let it = Tval.of_int (Pmdk.Layout.heap_base + (slot * item_words)) in
    let flags = Mem.load ctx ~instr:i_recover (f_flags it) in
    let key = Mem.load ctx ~instr:i_recover (f_key it) in
    if Int64.equal (Tval.v flags) flag_linked && not (Tval.is_zero key) then begin
      Hashtbl.replace (index ctx) (Tval.to_int key - 1) (Tval.to_int it);
      (* The rebuild re-marks the item linked (overwriting it_flags) and
         relinks the LRU chain front to back, overwriting prev/next. *)
      Mem.store ctx ~instr:i_recover (f_flags it) (Tval.of_int64 flag_linked);
      Mem.persist ctx ~instr:i_recover (f_flags it);
      Mem.store ctx ~instr:i_recover (f_prev it) !prev_linked;
      Mem.store ctx ~instr:i_recover (f_next it) Tval.zero;
      if not (Tval.is_zero !prev_linked) then begin
        Mem.store ctx ~instr:i_recover (f_next !prev_linked) it;
        Mem.persist ctx ~instr:i_recover (f_next !prev_linked)
      end
      else first := it;
      Mem.persist ctx ~instr:i_recover (f_prev it);
      prev_linked := it
    end
  done;
  Mem.store ctx ~instr:i_recover (root_off r_lru_head) !first;
  Mem.store ctx ~instr:i_recover (root_off r_lru_tail) !prev_linked;
  Mem.persist ctx ~instr:i_recover (root_off r_lru_head)

let lookup_after_recovery (env : Env.t) key =
  let ctx = Env.ctx env ~tid:(-2) in
  match find ctx key with
  | Some it -> Some (Tval.to_int (Mem.load ctx ~instr:i_chk_read (f_value it)))
  | None -> None

let known_bug id ~nu ~w ~r ~d ~c : Pmrace.Target.known_bug =
  {
    kb_id = id;
    kb_type = `Inter;
    kb_new = nu;
    kb_write_site = Some w;
    kb_read_site = Some r;
    kb_description = d;
    kb_consequence = c;
  }

let target : Pmrace.Target.t =
  {
    name = "memcached-pmem";
    version = "8f121f6";
    scope = "Key-value store";
    concurrency = "Lock-based";
    pool_words = 2048;
    expensive_init = true;
    init;
    annotate;
    recover;
    run_op;
    profile =
      {
        Pmrace.Seed.supported =
          [
            Pmrace.Seed.KPut;
            KGet;
            KUpdate;
            KDelete;
            KIncr;
            KDecr;
            KAppend;
            KPrepend;
            KScan;
            KCas;
            KTouch;
            KStats;
          ];
        key_range = 16;
        value_range = 1000;
        threads = 4;
        ops_per_thread = 8;
      };
    known_bugs =
      [
        known_bug 9 ~nu:true ~w:"memcached.c:4292" ~r:"memcached.c:2805"
          ~d:"read unflushed value and write value" ~c:"inconsistent data";
        known_bug 10 ~nu:true ~w:"memcached.c:4293" ~r:"memcached.c:2805"
          ~d:"read unflushed value and write value" ~c:"inconsistent data";
        known_bug 11 ~nu:false ~w:"items.c:423" ~r:"items.c:464"
          ~d:"read unflushed \"prev\" and write \"slabs_clsid\"" ~c:"inconsistent index";
        known_bug 12 ~nu:false ~w:"slabs.c:549" ~r:"slabs.c:412"
          ~d:"read unflushed \"next\" and write \"it_flags\" or value" ~c:"inconsistent index";
        known_bug 13 ~nu:false ~w:"items.c:1096" ~r:"memcached.c:2824"
          ~d:"read unflushed \"it_flags\" and write value" ~c:"inconsistent data";
        known_bug 14 ~nu:false ~w:"items.c:627" ~r:"items.c:623"
          ~d:"read unflushed \"slabs_clsid\" and write \"slabs_clsid\"" ~c:"inconsistent index";
      ];
    whitelist_sites = "memcached.c:chk_read" :: Pmdk.Tx.default_whitelist;
  }
