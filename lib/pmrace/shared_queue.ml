(* The priority queue of shared PM data accesses (§4.2.2).

   Observed PM accesses are grouped by address.  An address is a candidate
   preemption target when it has been loaded and stored by different
   threads ("shared data accesses"); entries are prioritised by access
   frequency, following the paper's three selection principles:
   (1) PM accesses only, (2) shared data only, (3) hot data first. *)

module Instr = Runtime.Instr

module Tset = Set.Make (Int)

(* Thread membership: bit [tid] of a mask for tids in [0, mask_tids), the
   only ones campaigns spawn, and a set for any other int (init contexts
   use -1).  A repeated tid costs a mask test. *)
let mask_tids = Sys.int_size - 1

(* Ascending, as the codec writes them. *)
let tid_list (mask, others) =
  let below, above = List.partition (fun t -> t < 0) (Tset.elements others) in
  let rec bits i acc =
    if i < 0 then acc else bits (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  below @ bits (mask_tids - 1) above

(* One address's facts.  Records are created on an address's first
   sighting and then reused: [clear] empties them in place. *)
type record = {
  sites : Site_set.t; (* [2 * instr] for a load site, [2 * instr + 1] for a store site *)
  mutable load_tids : int; (* masks *)
  mutable store_tids : int;
  mutable load_others : Tset.t; (* tids outside the masks *)
  mutable store_others : Tset.t;
  mutable hits : int;
  mutable listed : bool; (* in [addrs] since the last [clear] *)
}

type entry = {
  addr : int;
  loads : Instr.t list; (* the sync points: loads at this address *)
  stores : Instr.t list; (* signalled after these stores *)
  hits : int;
}

(* Address-indexed slots (grown on demand; [vacant] marks an address never
   observed) plus the addresses observed since the last [clear] in
   first-observation order, for iteration and O(observed) clearing.  An
   access is an array read, not a hash probe. *)
type t = { mutable slots : record array; mutable addrs : int array; mutable n_addrs : int }

let new_record () =
  {
    sites = Site_set.create ();
    load_tids = 0;
    store_tids = 0;
    load_others = Tset.empty;
    store_others = Tset.empty;
    hits = 0;
    listed = false;
  }

let vacant = new_record ()
let create () = { slots = [||]; addrs = [||]; n_addrs = 0 }

let record_of t addr =
  let n = Array.length t.slots in
  if addr >= n then begin
    let bigger = Array.make (max 256 (max (addr + 1) (2 * n))) vacant in
    Array.blit t.slots 0 bigger 0 n;
    t.slots <- bigger
  end;
  let r = t.slots.(addr) in
  if r.listed then r
  else begin
    let r =
      if r != vacant then r
      else begin
        let r = new_record () in
        t.slots.(addr) <- r;
        r
      end
    in
    r.listed <- true;
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

let add_load_tid r tid =
  if tid >= 0 && tid < mask_tids then r.load_tids <- r.load_tids lor (1 lsl tid)
  else if not (Tset.mem tid r.load_others) then r.load_others <- Tset.add tid r.load_others

let add_store_tid r tid =
  if tid >= 0 && tid < mask_tids then r.store_tids <- r.store_tids lor (1 lsl tid)
  else if not (Tset.mem tid r.store_others) then r.store_others <- Tset.add tid r.store_others

let observe_load t ~addr ~instr ~tid =
  let r = record_of t addr in
  ignore (Site_set.add r.sites (2 * Instr.to_int instr));
  add_load_tid r tid;
  r.hits <- r.hits + 1

let observe_store t ~addr ~instr ~tid =
  let r = record_of t addr in
  ignore (Site_set.add r.sites ((2 * Instr.to_int instr) + 1));
  add_store_tid r tid;
  r.hits <- r.hits + 1

(* Fold a worker-local per-campaign delta in: union the instruction and
   thread sets, sum the hit counts.  Each union walks the source's members
   and writes only facts the destination lacks.  All queue updates are
   set-unions and counter additions, so merging per-campaign deltas yields
   exactly the state direct accumulation would (the [workers = 1]
   bit-identity guarantee rests on this). *)
let merge_record dst addr (s : record) =
  let d = record_of dst addr in
  Site_set.union_into ~src:s.sites d.sites;
  d.load_tids <- d.load_tids lor s.load_tids;
  d.store_tids <- d.store_tids lor s.store_tids;
  if not (Tset.is_empty s.load_others) then d.load_others <- Tset.union d.load_others s.load_others;
  if not (Tset.is_empty s.store_others) then
    d.store_others <- Tset.union d.store_others s.store_others;
  d.hits <- d.hits + s.hits

let merge_into ~src dst = iter (merge_record dst) src

(* Empty the queue so a worker-local delta can be reused across campaigns:
   O(observed addresses), each record emptied in place. *)
let clear t =
  iter
    (fun _ r ->
      Site_set.clear r.sites;
      r.load_tids <- 0;
      r.store_tids <- 0;
      if not (Tset.is_empty r.load_others) then r.load_others <- Tset.empty;
      if not (Tset.is_empty r.store_others) then r.store_others <- Tset.empty;
      r.hits <- 0;
      r.listed <- false)
    t;
  t.n_addrs <- 0

(* The load ([kind] 0) or store ([kind] 1) sites, ascending like
   [Set.elements]. *)
let instrs r kind =
  Site_set.fold (fun k acc -> if k land 1 = kind then Instr.of_int (k lsr 1) :: acc else acc) r.sites []
  |> List.rev

let more_than_one_thread r =
  let mask = r.load_tids lor r.store_tids in
  match Tset.cardinal (Tset.union r.load_others r.store_others) with
  | 0 -> mask land (mask - 1) <> 0
  | 1 -> mask <> 0
  | _ -> true

(* Shared data: loaded and stored, with more than one thread involved. *)
let entries t =
  fold
    (fun addr r acc ->
      if not (more_than_one_thread r) then acc
      else
        match (instrs r 0, instrs r 1) with
        | [], _ | _, [] -> acc
        | loads, stores -> { addr; loads; stores; hits = r.hits } :: acc)
    t []
  |> List.sort (fun a b ->
         match compare b.hits a.hits with 0 -> compare a.addr b.addr | c -> c)

let tracked_addresses t = t.n_addrs

(* ------------------------------------------------------------------ *)
(* Wire/store codec (fleet mode).  Unlike [entries], the codec carries the
   *full* per-address records (including thread-id sets and not-yet-shared
   addresses), so decode-then-merge is exactly equivalent to merging the
   original queue. *)

(* Decoded addresses index the slot array and thread ids the per-record
   masks, so untrusted input must not name a negative one or force a huge
   allocation: no pool comes near 2^24 words, and no campaign spawns that
   many threads. *)
let max_decoded = (1 lsl 24) - 1

let in_range what =
  Obs.Codec.(
    conv
      (fun n ->
        if n < 0 || n > max_decoded then Error (Printf.sprintf "%s %d out of range" what n)
        else Ok n)
      Fun.id int)

(* One address's record; its sites re-register, loads first, on decode. *)
let record_codec =
  let open Obs.Codec in
  let names name kind = field name (list string) (fun (_, r) -> List.map Instr.name (instrs r kind)) in
  let tids name get =
    field name (list (in_range "thread id")) (fun (_, r) -> tid_list (get r))
  in
  let sites r kind =
    List.iter (fun n -> ignore (Site_set.add r.sites ((2 * Instr.to_int (Instr.site n)) + kind)))
  in
  obj
    (record (fun addr loads stores load_tids store_tids hits ->
         let r = new_record () in
         sites r 0 loads;
         sites r 1 stores;
         List.iter (add_load_tid r) load_tids;
         List.iter (add_store_tid r) store_tids;
         r.hits <- hits;
         (addr, r))
    |+ field "addr" (in_range "address") fst
    |+ names "loads" 0
    |+ names "stores" 1
    |+ tids "load_tids" (fun r -> (r.load_tids, r.load_others))
    |+ tids "store_tids" (fun r -> (r.store_tids, r.store_others))
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
