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

(* One int per (writing site, reading site, kind): the grouping Table 3
   counts unique candidates by, and, for Inter keys, an achieved site pair
   of PM alias coverage.  Site ids stay far below 2^[site_bits], so a key
   and a key extended by one more site id (an inconsistency's effect) both
   fit a native int.  Keys order as (write, read, kind). *)
let site_bits = 20
let key ~write ~read kind =
  (write lsl (site_bits + 1)) lor (read lsl 1) lor match kind with Inter -> 0 | Intra -> 1

let key_pair k = (k lsr (site_bits + 1), (k lsr 1) land ((1 lsl site_bits) - 1))
let key_kind k = if k land 1 = 0 then Inter else Intra

(* The hash folds the packed fields into the low bits without a C call. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr site_bits) lxor (k lsr (2 * site_bits))
end)

(* Ids are dense ([0, next)), so [by_id] is an array indexed by id, grown
   by doubling. *)
type t = {
  mutable next : int;
  mutable by_id : cand array;
  uniq : cand Tbl.t; (* packed key -> first candidate with it *)
}

let create () = { next = 0; by_id = [||]; uniq = Tbl.create 64 }

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
  let k = key ~write:(Instr.to_int write_instr) ~read:(Instr.to_int read_instr) kind in
  if not (Tbl.mem t.uniq k) then Tbl.add t.uniq k c;
  c

(* [Tbl.reset] shrinks a grown table back to its initial size, so
   [unique] iterates in the order a fresh table would. *)
let reset t =
  t.next <- 0;
  t.by_id <- [||];
  Tbl.reset t.uniq

let get t id = t.by_id.(id)
let dynamic_count t = t.next
let iter_unique f t = Tbl.iter f t.uniq

let unique t kind =
  Tbl.fold (fun k c acc -> if key_kind k = kind then c :: acc else acc) t.uniq []

let unique_count t kind = Tbl.fold (fun k _ n -> if key_kind k = kind then n + 1 else n) t.uniq 0

let pp_kind ppf = function Inter -> Fmt.string ppf "Inter" | Intra -> Fmt.string ppf "Intra"
