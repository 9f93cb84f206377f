(* PM alias pair coverage (§4.2.1).

   A PM access is identified by (instruction id, persistency state, thread
   id).  A *PM alias pair* is two back-to-back accesses to the same address
   by different threads; the pair is hashed into a fixed-size bitmap, like
   AFL's branch bitmap.  New bits are the fuzzer's interleaving-coverage
   feedback. *)

module Candidates = Runtime.Candidates

type access = { a_instr : int; a_dirty : bool; a_tid : int }

type t = {
  bits : Bytes.t;
  size : int; (* bits *)
  mutable count : int; (* set bits *)
  (* The indices of the bitmap's nonzero bytes, in the order they became
     nonzero, so merge and clear walk only what a map touched rather
     than all of [bits]. *)
  mutable touched : int array;
  mutable n_touched : int;
  (* Site-level accounting on top of the bitmap: achieved (write site,
     read site) pairs — cross-thread dirty reads, i.e. Inter candidates,
     held as their packed candidate keys — against the
     statically-possible denominator computed by the offline analyzer
     (Analysis.Site_graph). *)
  achieved : unit Candidates.Tbl.t;
  mutable possible : int option;
}

let create ?(size_log = 16) () =
  let size = 1 lsl size_log in
  {
    bits = Bytes.make (size / 8) '\000';
    size;
    count = 0;
    touched = [||];
    n_touched = 0;
    achieved = Candidates.Tbl.create 64;
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

let touch t byte =
  if t.n_touched = Array.length t.touched then begin
    let bigger = Array.make (max 64 (2 * t.n_touched)) 0 in
    Array.blit t.touched 0 bigger 0 t.n_touched;
    t.touched <- bigger
  end;
  t.touched.(t.n_touched) <- byte;
  t.n_touched <- t.n_touched + 1

let rec popcount n acc = if n = 0 then acc else popcount (n lsr 1) (acc + (n land 1))

(* OR [bits] into byte [byte], counting the new bits and listing the byte
   when it was zero. *)
let or_byte t byte bits =
  let old = Char.code (Bytes.get t.bits byte) in
  let fresh = bits land lnot old in
  if fresh = 0 then false
  else begin
    if old = 0 then touch t byte;
    Bytes.set t.bits byte (Char.chr (old lor fresh));
    t.count <- t.count + popcount fresh 0;
    true
  end

let set_bit t idx = or_byte t (idx / 8) (1 lsl (idx mod 8))

let observe_pair t ~p_instr ~p_dirty ~p_tid ~c_instr ~c_dirty ~c_tid =
  if p_tid = c_tid then false
  else set_bit t (abs (hash_pair ~p_instr ~p_dirty ~p_tid ~c_instr ~c_dirty ~c_tid) mod t.size)

let observe t ~prev ~cur =
  observe_pair t ~p_instr:prev.a_instr ~p_dirty:prev.a_dirty ~p_tid:prev.a_tid
    ~c_instr:cur.a_instr ~c_dirty:cur.a_dirty ~c_tid:cur.a_tid

let count t = t.count
let size t = t.size

(* Fold a worker-local per-campaign delta into a shared map: OR the
   bytes the delta touched (recounting only genuinely new bits) and union
   the achieved site pairs.  The §5 worker pool calls this at campaign
   boundaries under the hub lock, so campaign execution itself never
   touches shared coverage state. *)
let merge_into ~src dst =
  if src.size <> dst.size then invalid_arg "Alias_cov.merge_into: size mismatch";
  for i = 0 to src.n_touched - 1 do
    let b = src.touched.(i) in
    ignore (or_byte dst b (Char.code (Bytes.get src.bits b)))
  done;
  Candidates.Tbl.iter (fun k () -> Candidates.Tbl.replace dst.achieved k ()) src.achieved

let record_site_pair t ~write_instr:write ~read_instr:read =
  Candidates.Tbl.replace t.achieved (Candidates.key ~write ~read Candidates.Inter) ()

let record_candidates t cands =
  Candidates.iter_unique
    (fun k _ ->
      if Candidates.key_kind k = Candidates.Inter then Candidates.Tbl.replace t.achieved k ())
    cands

let achieved_site_pairs t = Candidates.Tbl.length t.achieved

(* Inter keys order as (write, read) pairs do. *)
let sorted_pairs keep t =
  Candidates.Tbl.fold (fun k () acc -> if keep k then k :: acc else acc) t.achieved []
  |> List.sort Int.compare
  |> List.map Candidates.key_pair

let site_pairs t = sorted_pairs (fun _ -> true) t
let fresh_pairs ~src dst = sorted_pairs (fun k -> not (Candidates.Tbl.mem dst.achieved k)) src

let set_possible t n = t.possible <- Some n
let possible t = t.possible

let pp_site_coverage ppf t =
  match t.possible with
  | Some p -> Fmt.pf ppf "%d/%d site pairs" (achieved_site_pairs t) p
  | None -> Fmt.pf ppf "%d site pairs (no static denominator)" (achieved_site_pairs t)

(* Per-execution scratch: the previous accessor of every PM address, in
   address-indexed int arrays, grown on demand, whose entries are valid
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
}

let tracker () =
  { gen = 1; last_stamp = [||]; last_instr = [||]; last_dirty = Bytes.empty; last_tid = [||] }

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
    tr.last_tid <- grow tr.last_tid
  end

(* One PM access: the pair it forms with the address's previous access.
   A store or non-temporal store leaves its word dirty. *)
let record_access t tr ~addr ~instr ~dirty ~tid =
  ensure tr addr;
  if tr.last_stamp.(addr) = tr.gen then
    ignore
      (observe_pair t ~p_instr:tr.last_instr.(addr)
         ~p_dirty:(Bytes.get tr.last_dirty addr <> '\000')
         ~p_tid:tr.last_tid.(addr) ~c_instr:instr ~c_dirty:dirty ~c_tid:tid)
  else tr.last_stamp.(addr) <- tr.gen;
  tr.last_instr.(addr) <- instr;
  Bytes.set tr.last_dirty addr (if dirty then '\001' else '\000');
  tr.last_tid.(addr) <- tid

(* Empty the map itself (bitmap, count, achieved pairs) so a worker-local
   delta can be reused across campaigns: O(touched bytes). *)
let clear t =
  for i = 0 to t.n_touched - 1 do
    Bytes.set t.bits t.touched.(i) '\000'
  done;
  t.n_touched <- 0;
  t.count <- 0;
  Candidates.Tbl.reset t.achieved;
  t.possible <- None

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
  let digits = "0123456789abcdef" in
  String.init (2 * Bytes.length b) (fun i ->
      let c = Char.code (Bytes.get b (i / 2)) in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])

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
        Bytes.iteri (fun b c -> ignore (or_byte t b (Char.code c))) bits;
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
