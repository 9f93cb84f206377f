(* Per-address persistency lifecycle FSM.

   The event stream already linearises the execution (the cooperative
   scheduler emits events in the order operations actually interleaved),
   so the FSM is a straight fold: a hash table of per-word states plus
   one global flush-since-last-fence flag for fence-redundancy.

   On top of the original four-rule automaton, the FSM tracks two shadow
   structures for the PM-bug-taxonomy detectors (Hasan'23 classes):

   - a per-line table of the last CLWB with no intervening store to the
     line, for the double-flush pattern (distinct from redundant-flush,
     which is about dirty words: double-flush is the back-to-back flush
     of one line, a recurring PM performance bug);
   - a per-word issue sequence number, so a fence can detect that a word
     it just persisted was stored *after* a still-dirty word in a
     different pool region — a cross-region durability-ordering hazard
     (e.g. heap data durable before the undo log that guards it).  The
     region classifier is supplied by the caller; without one the pool is
     a single region and the detector is silent. *)

module Env = Runtime.Env
module Instr = Runtime.Instr

type state =
  | S_clean
  | S_dirty of { w_site : Instr.t; w_tid : int }
  | S_flushed of { w_site : Instr.t; w_tid : int; f_site : Instr.t }

type obs =
  | O_dirty_read of {
      w_site : Instr.t;
      w_tid : int;
      r_site : Instr.t;
      r_tid : int;
      addr : int;
    }
  | O_unfenced_read of {
      w_site : Instr.t;
      w_tid : int;
      f_site : Instr.t;
      r_site : Instr.t;
      r_tid : int;
      addr : int;
    }
  | O_redundant_flush of { f_site : Instr.t; addr : int }
  | O_redundant_fence of { site : Instr.t }
  | O_double_flush of { f_site : Instr.t; prev_site : Instr.t; addr : int }
  | O_cross_region_order of {
      early_site : Instr.t;
      early_addr : int;
      late_site : Instr.t;
      late_addr : int;
    }

type t = {
  words : (int, state) Hashtbl.t;
  seqs : (int, int) Hashtbl.t; (* word -> issue seq of its latest store *)
  flushed_lines : (int, Instr.t) Hashtbl.t; (* line -> last CLWB, no store since *)
  region_of : (int -> int) option;
  mutable seq : int;
  mutable flush_since_fence : bool;
}

let create ?region_of () =
  {
    words = Hashtbl.create 256;
    seqs = Hashtbl.create 256;
    flushed_lines = Hashtbl.create 64;
    region_of;
    seq = 0;
    flush_since_fence = false;
  }

let state t addr = Option.value ~default:S_clean (Hashtbl.find_opt t.words addr)
let seq_of t addr = Option.value ~default:0 (Hashtbl.find_opt t.seqs addr)

let set t addr = function
  | S_clean -> Hashtbl.remove t.words addr
  | s -> Hashtbl.replace t.words addr s

let issue t addr =
  t.seq <- t.seq + 1;
  Hashtbl.replace t.seqs addr t.seq;
  Hashtbl.remove t.flushed_lines (Pmem.Cacheline.line_of_word addr)

(* Cross-region ordering check, at a fence: a word this fence persisted
   was issued after a still-dirty store in a different region — the older
   store should have been durable first.  One observation per fence (the
   persisted words come sorted, the dirty candidates are scanned in issue
   order), so the report stays deduplicatable and insertion-order
   independent. *)
let check_cross_region t ~emit persisted =
  match t.region_of with
  | None -> ()
  | Some region ->
      let dirty =
        Hashtbl.fold
          (fun a s acc ->
            match s with S_dirty { w_site; _ } -> (seq_of t a, a, w_site) :: acc | _ -> acc)
          t.words []
        |> List.sort compare
      in
      if dirty <> [] then
        let rec scan = function
          | [] -> ()
          | w :: rest -> (
              match state t w with
              | S_flushed { w_site = late_site; _ } -> (
                  let sw = seq_of t w and rw = region w in
                  match
                    List.find_opt (fun (sd, d, _) -> sd < sw && region d <> rw) dirty
                  with
                  | Some (_, early_addr, early_site) ->
                      emit
                        (O_cross_region_order
                           { early_site; early_addr; late_site; late_addr = w })
                  | None -> scan rest)
              | S_clean | S_dirty _ -> scan rest)
        in
        scan persisted

let step t ~emit (ev : Env.event) =
  match ev with
  | Env.Ev_store { instr; tid; addr } ->
      issue t addr;
      set t addr (S_dirty { w_site = instr; w_tid = tid })
  | Env.Ev_movnt { instr; tid; addr } ->
      issue t addr;
      t.flush_since_fence <- true;
      set t addr (S_flushed { w_site = instr; w_tid = tid; f_site = instr })
  | Env.Ev_load { instr; tid; addr; _ } -> (
      match state t addr with
      | S_dirty { w_site; w_tid } when w_tid <> tid ->
          emit (O_dirty_read { w_site; w_tid; r_site = instr; r_tid = tid; addr })
      | S_flushed { w_site; w_tid; f_site } when w_tid <> tid ->
          emit (O_unfenced_read { w_site; w_tid; f_site; r_site = instr; r_tid = tid; addr })
      | S_clean | S_dirty _ | S_flushed _ -> ())
  | Env.Ev_clwb { instr; addr; dirty_words; _ } ->
      t.flush_since_fence <- true;
      let line = Pmem.Cacheline.line_of_word addr in
      (match Hashtbl.find_opt t.flushed_lines line with
      | Some prev_site -> emit (O_double_flush { f_site = instr; prev_site; addr })
      | None -> ());
      Hashtbl.replace t.flushed_lines line instr;
      if dirty_words = 0 then emit (O_redundant_flush { f_site = instr; addr });
      Pmem.Cacheline.iter_line
        (fun w ->
          match state t w with
          | S_dirty { w_site; w_tid } ->
              set t w (S_flushed { w_site; w_tid; f_site = instr })
          | S_clean | S_flushed _ -> ())
        addr
  | Env.Ev_fence { instr; persisted; _ } ->
      if (not t.flush_since_fence) && persisted = [] then emit (O_redundant_fence { site = instr });
      t.flush_since_fence <- false;
      check_cross_region t ~emit persisted;
      List.iter
        (fun w ->
          match state t w with
          | S_flushed _ -> set t w S_clean
          | S_clean | S_dirty _ -> () (* re-dirtied after the flush: stays dirty *))
        persisted
  | Env.Ev_branch _ -> ()

let dirty_words t =
  Hashtbl.fold
    (fun addr s acc -> match s with S_dirty { w_site; _ } -> (addr, w_site) :: acc | _ -> acc)
    t.words []
  |> List.sort compare

let reset t =
  Hashtbl.reset t.words;
  Hashtbl.reset t.seqs;
  Hashtbl.reset t.flushed_lines;
  t.seq <- 0;
  t.flush_since_fence <- false
