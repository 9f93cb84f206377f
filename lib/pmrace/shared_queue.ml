(* The priority queue of shared PM data accesses (§4.2.2).

   Observed PM accesses are grouped by address.  An address is a candidate
   preemption target when it has been loaded and stored by different
   threads ("shared data accesses"); entries are prioritised by access
   frequency, following the paper's three selection principles:
   (1) PM accesses only, (2) shared data only, (3) hot data first. *)

module Instr = Runtime.Instr

module Iset = Set.Make (Instr)
module Tset = Set.Make (Int)

type record = {
  mutable load_instrs : Iset.t;
  mutable store_instrs : Iset.t;
  mutable load_tids : Tset.t;
  mutable store_tids : Tset.t;
  mutable hits : int;
}

type entry = {
  addr : int;
  loads : Instr.t list; (* the sync points: loads at this address *)
  stores : Instr.t list; (* signalled after these stores *)
  hits : int;
}

(* Address-indexed slots (grown on demand; [vacant] marks an address never
   observed) plus the observed addresses in first-observation order, for
   iteration and O(observed) clearing.  An access is an array read, not a
   hash probe. *)
type t = { mutable slots : record array; mutable addrs : int array; mutable n_addrs : int }

let vacant =
  {
    load_instrs = Iset.empty;
    store_instrs = Iset.empty;
    load_tids = Tset.empty;
    store_tids = Tset.empty;
    hits = 0;
  }

let create () = { slots = [||]; addrs = [||]; n_addrs = 0 }

let record_of t addr =
  let n = Array.length t.slots in
  if addr >= n then begin
    let bigger = Array.make (max 256 (max (addr + 1) (2 * n))) vacant in
    Array.blit t.slots 0 bigger 0 n;
    t.slots <- bigger
  end;
  let r = t.slots.(addr) in
  if r != vacant then r
  else begin
    let r = { vacant with hits = 0 } (* a fresh record, never [vacant] itself *) in
    t.slots.(addr) <- r;
    if t.n_addrs = Array.length t.addrs then begin
      let bigger = Array.make (max 64 (2 * t.n_addrs)) 0 in
      Array.blit t.addrs 0 bigger 0 t.n_addrs;
      t.addrs <- bigger
    end;
    t.addrs.(t.n_addrs) <- addr;
    t.n_addrs <- t.n_addrs + 1;
    r
  end

(* The observed records, in first-observation order. *)
let iter f t =
  for i = 0 to t.n_addrs - 1 do
    let addr = t.addrs.(i) in
    f addr t.slots.(addr)
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun addr r -> acc := f addr r !acc) t;
  !acc

let observe_load t ~addr ~instr ~tid =
  let r = record_of t addr in
  r.load_instrs <- Iset.add instr r.load_instrs;
  r.load_tids <- Tset.add tid r.load_tids;
  r.hits <- r.hits + 1

let observe_store t ~addr ~instr ~tid =
  let r = record_of t addr in
  r.store_instrs <- Iset.add instr r.store_instrs;
  r.store_tids <- Tset.add tid r.store_tids;
  r.hits <- r.hits + 1

(* Fold a worker-local per-campaign delta in: union the instruction and
   thread sets, sum the hit counts.  All queue updates are set-unions and
   counter additions, so merging per-campaign deltas yields exactly the
   state direct accumulation would (the [workers = 1] bit-identity
   guarantee rests on this). *)
let merge_record dst addr (s : record) =
  let d = record_of dst addr in
  d.load_instrs <- Iset.union d.load_instrs s.load_instrs;
  d.store_instrs <- Iset.union d.store_instrs s.store_instrs;
  d.load_tids <- Tset.union d.load_tids s.load_tids;
  d.store_tids <- Tset.union d.store_tids s.store_tids;
  d.hits <- d.hits + s.hits

let merge_into ~src dst = iter (merge_record dst) src

let handler t = function
  | Runtime.Env.Ev_load { instr; tid; addr; _ } -> observe_load t ~addr ~instr ~tid
  | Runtime.Env.Ev_store { instr; tid; addr } | Runtime.Env.Ev_movnt { instr; tid; addr } ->
      observe_store t ~addr ~instr ~tid
  | Runtime.Env.Ev_clwb _ | Runtime.Env.Ev_fence _ | Runtime.Env.Ev_branch _ -> ()

(* Empty the queue so a worker-local delta can be reused across campaigns:
   O(observed addresses). *)
let clear t =
  iter (fun addr _ -> t.slots.(addr) <- vacant) t;
  t.n_addrs <- 0

(* Shared data: loaded and stored, with more than one thread involved. *)
let is_shared r =
  (not (Iset.is_empty r.load_instrs))
  && (not (Iset.is_empty r.store_instrs))
  && Tset.cardinal (Tset.union r.load_tids r.store_tids) > 1

let entries t =
  fold
    (fun addr r acc ->
      if is_shared r then
        {
          addr;
          loads = Iset.elements r.load_instrs;
          stores = Iset.elements r.store_instrs;
          hits = r.hits;
        }
        :: acc
      else acc)
    t []
  |> List.sort (fun a b ->
         match compare b.hits a.hits with 0 -> compare a.addr b.addr | c -> c)

let tracked_addresses t = t.n_addrs

(* ------------------------------------------------------------------ *)
(* Wire/store codec (fleet mode).  Unlike [entries], the codec carries the
   *full* per-address records (including thread-id sets and not-yet-shared
   addresses), so decode-then-merge is exactly equivalent to merging the
   original queue. *)

(* Decoded addresses index the slot array, so untrusted input must not
   name a negative one or force a huge allocation: no pool comes near
   2^24 words. *)
let max_decoded_addr = (1 lsl 24) - 1

let address =
  Obs.Codec.(
    conv
      (fun addr ->
        if addr < 0 || addr > max_decoded_addr then
          Error (Printf.sprintf "address %d out of range" addr)
        else Ok addr)
      Fun.id int)

(* One address's record; its sites re-register, loads first, on decode. *)
let record_codec =
  let open Obs.Codec in
  let names name get =
    field name (list string) (fun (_, r) -> List.map Instr.name (Iset.elements (get r)))
  in
  let tids name get = field name (list int) (fun (_, r) -> Tset.elements (get r)) in
  let sites names = Iset.of_list (List.map Instr.site names) in
  obj
    (record (fun addr loads stores load_tids store_tids hits ->
         let load_instrs = sites loads in
         let store_instrs = sites stores in
         ( addr,
           {
             load_instrs;
             store_instrs;
             load_tids = Tset.of_list load_tids;
             store_tids = Tset.of_list store_tids;
             hits;
           } ))
    |+ field "addr" address fst
    |+ names "loads" (fun r -> r.load_instrs)
    |+ names "stores" (fun r -> r.store_instrs)
    |+ tids "load_tids" (fun r -> r.load_tids)
    |+ tids "store_tids" (fun r -> r.store_tids)
    |+ field "hits" int (fun (_, (r : record)) -> r.hits))

let codec =
  Obs.Codec.(
    conv
      (fun records ->
        let t = create () in
        List.iter (fun (addr, r) -> merge_record t addr r) records;
        Ok t)
      (fun t ->
        fold (fun addr r acc -> (addr, r) :: acc) t []
        |> List.sort (fun (a, _) (b, _) -> compare a b))
      (list record_codec))
