(* A set of instruction ids as a bitset indexed by id, plus its members in
   insertion order.  Site ids are dense ([0, Runtime.Instr.count ())), so
   membership and insertion are a byte read and write — no hashing on the
   per-access paths that record sites (branch coverage, the shared queue's
   per-address sites, the seeds' touched-site sets).  The member array
   makes union and clear O(members) instead of O(bitset), so a
   campaign-boundary merge does set work only for ids the destination
   lacks. *)

type t = { mutable bits : Bytes.t; mutable ids : int array; mutable count : int }

let create () = { bits = Bytes.empty; ids = [||]; count = 0 }

let mem t id =
  id >= 0
  && id lsr 3 < Bytes.length t.bits
  && Char.code (Bytes.get t.bits (id lsr 3)) land (1 lsl (id land 7)) <> 0

let add t id =
  if id < 0 then invalid_arg "Site_set.add: negative id";
  let byte = id lsr 3 in
  let n = Bytes.length t.bits in
  if byte >= n then begin
    let bigger = Bytes.make (max 32 (max (byte + 1) (2 * n))) '\000' in
    Bytes.blit t.bits 0 bigger 0 n;
    t.bits <- bigger
  end;
  let old = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl (id land 7) in
  if old land mask <> 0 then false
  else begin
    Bytes.set t.bits byte (Char.chr (old lor mask));
    if t.count = Array.length t.ids then begin
      let bigger = Array.make (max 4 (2 * t.count)) 0 in
      Array.blit t.ids 0 bigger 0 t.count;
      t.ids <- bigger
    end;
    t.ids.(t.count) <- id;
    t.count <- t.count + 1;
    true
  end

let count t = t.count

(* Ascending ids. *)
let fold f t acc =
  let acc = ref acc in
  for byte = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.get t.bits byte) in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then acc := f ((byte lsl 3) lor bit) !acc
      done
  done;
  !acc

(* O(|src|): one byte test per member of [src], a write only for ids
   [dst] lacks. *)
let union_into ~src dst =
  for i = 0 to src.count - 1 do
    ignore (add dst src.ids.(i))
  done

(* O(members): clear each member's bit, keep the capacity. *)
let clear t =
  for i = 0 to t.count - 1 do
    let id = t.ids.(i) in
    Bytes.set t.bits (id lsr 3) '\000'
  done;
  t.count <- 0
