(* A set of instruction ids as a bitset indexed by id.  Site ids are dense
   ([0, Runtime.Instr.count ())), so membership and insertion are a byte
   read and write — no hashing on the per-access paths that record sites
   (branch coverage, the seeds' touched-site sets). *)

type t = { mutable bits : Bytes.t; mutable count : int }

let create () = { bits = Bytes.empty; count = 0 }

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

let union_into ~src dst = fold (fun id () -> ignore (add dst id)) src ()

let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.count <- 0

(* The fuzz worker's seed-site recorder: the sites of PM accesses, into
   whichever set [cur] points at (retargeted per campaign). *)
let access_handler cur = function
  | Runtime.Env.Ev_load { instr; _ } | Runtime.Env.Ev_store { instr; _ }
  | Runtime.Env.Ev_movnt { instr; _ } ->
      ignore (add !cur (Runtime.Instr.to_int instr))
  | Runtime.Env.Ev_clwb _ | Runtime.Env.Ev_fence _ | Runtime.Env.Ev_branch _ -> ()
