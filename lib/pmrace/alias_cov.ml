(* PM alias pair coverage (§4.2.1).

   A PM access is identified by (instruction id, persistency state, thread
   id).  A *PM alias pair* is two back-to-back accesses to the same address
   by different threads; the pair is hashed into a fixed-size bitmap, like
   AFL's branch bitmap.  New bits are the fuzzer's interleaving-coverage
   feedback. *)

module Rng = Sched.Rng

type access = { a_instr : int; a_dirty : bool; a_tid : int }

type t = {
  bits : Bytes.t;
  size : int; (* bits *)
  mutable count : int; (* set bits *)
  (* Site-level accounting on top of the bitmap: achieved (write site,
     read site) pairs — cross-thread dirty reads — against the
     statically-possible denominator computed by the offline analyzer
     (Analysis.Site_graph). *)
  achieved : (int * int, unit) Hashtbl.t;
  mutable possible : int option;
}

let create ?(size_log = 16) () =
  let size = 1 lsl size_log in
  {
    bits = Bytes.make (size / 8) '\000';
    size;
    count = 0;
    achieved = Hashtbl.create 64;
    possible = None;
  }

let mix h x =
  let h = h lxor (x * 0x9E3779B1) in
  let h = (h lxor (h lsr 15)) * 0x85EBCA77 in
  h lxor (h lsr 13)

let dirty_code dirty = if dirty then 3 else 5

let hash_pair ~p_instr ~p_dirty ~p_tid ~c_instr ~c_dirty ~c_tid =
  let h = 0x27220A95 in
  let h = mix h p_instr in
  let h = mix h (dirty_code p_dirty) in
  let h = mix h p_tid in
  let h = mix h c_instr in
  let h = mix h (dirty_code c_dirty) in
  mix h c_tid

let set_bit t idx =
  let byte = idx / 8 and bit = idx mod 8 in
  let old = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl bit in
  if old land mask = 0 then begin
    Bytes.set t.bits byte (Char.chr (old lor mask));
    t.count <- t.count + 1;
    true
  end
  else false

let observe_pair t ~p_instr ~p_dirty ~p_tid ~c_instr ~c_dirty ~c_tid =
  if p_tid = c_tid then false
  else set_bit t (abs (hash_pair ~p_instr ~p_dirty ~p_tid ~c_instr ~c_dirty ~c_tid) mod t.size)

let observe t ~prev ~cur =
  observe_pair t ~p_instr:prev.a_instr ~p_dirty:prev.a_dirty ~p_tid:prev.a_tid
    ~c_instr:cur.a_instr ~c_dirty:cur.a_dirty ~c_tid:cur.a_tid

let count t = t.count
let size t = t.size

(* Fold a worker-local per-campaign delta into a shared map: OR the
   bitmaps (recounting only genuinely new bits) and union the achieved
   site pairs.  The §5 worker pool calls this at campaign boundaries under
   the hub lock, so campaign execution itself never touches shared
   coverage state. *)
let merge_into ~src dst =
  if src.size <> dst.size then invalid_arg "Alias_cov.merge_into: size mismatch";
  let bytes = src.size / 8 in
  for b = 0 to bytes - 1 do
    let s = Char.code (Bytes.get src.bits b) in
    if s <> 0 then begin
      let d = Char.code (Bytes.get dst.bits b) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        Bytes.set dst.bits b (Char.chr (d lor s));
        let rec popcount n acc = if n = 0 then acc else popcount (n lsr 1) (acc + (n land 1)) in
        dst.count <- dst.count + popcount fresh 0
      end
    end
  done;
  Hashtbl.iter (fun pair () -> Hashtbl.replace dst.achieved pair ()) src.achieved

let record_site_pair t ~write_instr ~read_instr =
  Hashtbl.replace t.achieved (write_instr, read_instr) ()

let achieved_site_pairs t = Hashtbl.length t.achieved

let site_pairs t =
  Hashtbl.fold (fun (w, r) () acc -> (w, r) :: acc) t.achieved [] |> List.sort compare

let fresh_pairs ~src dst =
  List.filter (fun pair -> not (Hashtbl.mem dst.achieved pair)) (site_pairs src)

let set_possible t n = t.possible <- Some n
let possible t = t.possible

let pp_site_coverage ppf t =
  match t.possible with
  | Some p -> Fmt.pf ppf "%d/%d site pairs" (Hashtbl.length t.achieved) p
  | None -> Fmt.pf ppf "%d site pairs (no static denominator)" (Hashtbl.length t.achieved)

(* Per-execution scratch: the previous accessor of every PM address, plus
   the last *writer* tracked separately so that cross-thread dirty reads
   also register as achieved site pairs against the static denominator.
   Address-indexed int arrays, grown on demand, whose entries are valid
   only when their stamp equals the tracker's generation: reset is a
   generation bump, and an access is a few array writes (no hashing, no
   record).  The persistent-mode engine keeps one tracker per worker and
   resets it between campaigns instead of allocating fresh closures. *)
type tracker = {
  mutable gen : int;
  mutable last_stamp : int array;
  mutable last_instr : int array;
  mutable last_dirty : Bytes.t;
  mutable last_tid : int array;
  mutable writer_stamp : int array;
  mutable writer_instr : int array;
  mutable writer_tid : int array;
}

let tracker () =
  {
    gen = 1;
    last_stamp = [||];
    last_instr = [||];
    last_dirty = Bytes.empty;
    last_tid = [||];
    writer_stamp = [||];
    writer_instr = [||];
    writer_tid = [||];
  }

let reset_tracker tr = tr.gen <- tr.gen + 1

(* Make [addr] indexable.  New slots carry stamp 0, which no generation
   equals. *)
let ensure tr addr =
  let n = Array.length tr.last_stamp in
  if addr >= n then begin
    let m = max 256 (max (addr + 1) (2 * n)) in
    let grow a = Array.append a (Array.make (m - n) 0) in
    tr.last_stamp <- grow tr.last_stamp;
    tr.last_instr <- grow tr.last_instr;
    tr.last_dirty <- Bytes.cat tr.last_dirty (Bytes.make (m - n) '\000');
    tr.last_tid <- grow tr.last_tid;
    tr.writer_stamp <- grow tr.writer_stamp;
    tr.writer_instr <- grow tr.writer_instr;
    tr.writer_tid <- grow tr.writer_tid
  end

let on_access t tr addr ~instr ~dirty ~tid =
  if tr.last_stamp.(addr) = tr.gen then
    ignore
      (observe_pair t ~p_instr:tr.last_instr.(addr)
         ~p_dirty:(Bytes.get tr.last_dirty addr <> '\000')
         ~p_tid:tr.last_tid.(addr) ~c_instr:instr ~c_dirty:dirty ~c_tid:tid)
  else tr.last_stamp.(addr) <- tr.gen;
  tr.last_instr.(addr) <- instr;
  Bytes.set tr.last_dirty addr (if dirty then '\001' else '\000');
  tr.last_tid.(addr) <- tid

let handler t tr = function
  | Runtime.Env.Ev_load { instr; tid; addr; dirty } ->
      let instr = Runtime.Instr.to_int instr in
      ensure tr addr;
      if dirty && tr.writer_stamp.(addr) = tr.gen && tr.writer_tid.(addr) <> tid then
        record_site_pair t ~write_instr:tr.writer_instr.(addr) ~read_instr:instr;
      on_access t tr addr ~instr ~dirty ~tid
  | Runtime.Env.Ev_store { instr; tid; addr } | Runtime.Env.Ev_movnt { instr; tid; addr } ->
      let instr = Runtime.Instr.to_int instr in
      ensure tr addr;
      tr.writer_stamp.(addr) <- tr.gen;
      tr.writer_instr.(addr) <- instr;
      tr.writer_tid.(addr) <- tid;
      on_access t tr addr ~instr ~dirty:true ~tid
  | Runtime.Env.Ev_clwb _ | Runtime.Env.Ev_fence _ | Runtime.Env.Ev_branch _ -> ()

(* Empty the map itself (bitmap, count, achieved pairs) so a worker-local
   delta can be reused across campaigns. *)
let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.count <- 0;
  Hashtbl.reset t.achieved;
  t.possible <- None

let attach t env =
  let tr = tracker () in
  Runtime.Env.add_listener env (handler t tr)

(* ------------------------------------------------------------------ *)
(* Wire/store codec (fleet mode).  Site pairs travel by *name* and are
   re-registered on decode, so they are valid across processes with
   different site-id layouts.  The raw bitmap is also carried (hex): it
   only or-merges meaningfully between processes running the same binary,
   but even a layout-shifted bitmap stays a sound coverage estimate (the
   count can only be approximate, exactly as within one AFL fleet). *)

let site_pair =
  Obs.Codec.(obj (record (fun w r -> (w, r)) |+ field "write" string fst |+ field "read" string snd))

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Buffer.create (2 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string out (Printf.sprintf "%02x" (Char.code (Bytes.get b i)))
  done;
  Buffer.contents out

let bytes_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let n = String.length s / 2 in
  let b = Bytes.create n in
  let rec go i =
    if i = n then Some b
    else
      let hi = digit s.[2 * i] and lo = digit s.[(2 * i) + 1] in
      if hi < 0 || lo < 0 then None
      else begin
        Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
        go (i + 1)
      end
  in
  if String.length s mod 2 <> 0 then None else go 0

let popcount b =
  let rec pop n acc = if n = 0 then acc else pop (n lsr 1) (acc + (n land 1)) in
  Bytes.fold_left (fun acc c -> pop (Char.code c) acc) 0 b

(* The read site registers before the write site, the order every
   earlier decoder used, so site ids come out the same. *)
let of_parts (size, hex, pairs) =
  if size <= 0 || size land (size - 1) <> 0 then Error "bitmap size is not a power of two"
  else
    match bytes_of_hex hex with
    | None -> Error "bitmap is not hex"
    | Some bits when Bytes.length bits <> size / 8 -> Error "bitmap length mismatch"
    | Some bits ->
        let size_log =
          let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
          log2 size 0
        in
        let t = create ~size_log () in
        Bytes.blit bits 0 t.bits 0 (Bytes.length bits);
        t.count <- popcount t.bits;
        List.iter
          (fun (w, r) ->
            let read_instr = Runtime.Instr.to_int (Runtime.Instr.site r) in
            let write_instr = Runtime.Instr.to_int (Runtime.Instr.site w) in
            record_site_pair t ~write_instr ~read_instr)
          pairs;
        Ok t

let codec =
  let name id = Runtime.Instr.name (Runtime.Instr.of_int id) in
  Obs.Codec.(
    conv of_parts
      (fun t -> (t.size, hex_of_bytes t.bits, List.map (fun (w, r) -> (name w, name r)) (site_pairs t)))
      (obj
         (record (fun size bits pairs -> (size, bits, pairs))
         |+ field "size" int (fun (s, _, _) -> s)
         |+ field "bits" string (fun (_, b, _) -> b)
         |+ field "site_pairs" (list site_pair) (fun (_, _, p) -> p))))
