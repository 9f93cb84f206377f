(* PM Inter-/Intra-thread Inconsistency Candidates (Definitions 1 and the
   intra-thread variant, §3.1).

   A candidate is created whenever a load observes a PM word that is dirty
   (visible but not persisted).  Its id doubles as the taint label attached
   to the loaded value. *)

type kind = Inter | Intra

type cand = {
  id : int;
  kind : kind;
  addr : int;
  read_instr : Instr.t;
  read_tid : int;
  write_instr : Instr.t;
  write_tid : int;
}

(* Unique candidates are grouped by the (writing site, reading site) pair,
   which is how the paper groups them for Table 3. *)
type key = { k_write : Instr.t; k_read : Instr.t; k_kind : kind }

(* Ids are dense ([0, next)), so [by_id] is an array indexed by id, grown
   by doubling. *)
type t = {
  mutable next : int;
  mutable by_id : cand array;
  uniq : (key, cand) Hashtbl.t;
}

let create () = { next = 0; by_id = [||]; uniq = Hashtbl.create 64 }

let key_of c = { k_write = c.write_instr; k_read = c.read_instr; k_kind = c.kind }

let register t ~addr ~read_instr ~read_tid ~write_instr ~write_tid =
  let kind = if read_tid = write_tid then Intra else Inter in
  let c = { id = t.next; kind; addr; read_instr; read_tid; write_instr; write_tid } in
  t.next <- t.next + 1;
  if c.id = Array.length t.by_id then begin
    let bigger = Array.make (max 64 (2 * c.id)) c in
    Array.blit t.by_id 0 bigger 0 c.id;
    t.by_id <- bigger
  end;
  t.by_id.(c.id) <- c;
  let k = key_of c in
  if not (Hashtbl.mem t.uniq k) then Hashtbl.add t.uniq k c;
  c

(* [Hashtbl.reset] shrinks a grown table back to its initial size, so
   [unique] iterates in the order a fresh table would. *)
let reset t =
  t.next <- 0;
  t.by_id <- [||];
  Hashtbl.reset t.uniq

let get t id = t.by_id.(id)
let dynamic_count t = t.next

let unique t kind =
  Hashtbl.fold (fun k c acc -> if k.k_kind = kind then c :: acc else acc) t.uniq []

let unique_count t kind = List.length (unique t kind)

let pp_kind ppf = function Inter -> Fmt.string ppf "Inter" | Intra -> Fmt.string ppf "Intra"

let pp ppf c =
  Fmt.pf ppf "%a-Cand#%d addr=%d write=%a(t%d) read=%a(t%d)" pp_kind c.kind c.id c.addr Instr.pp
    c.write_instr c.write_tid Instr.pp c.read_instr c.read_tid
