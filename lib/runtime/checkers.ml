(* The PM inconsistency checkers (§4.3).

   - Candidates: created at load time (delegated to [Candidates]).
   - PM Inter-/Intra-thread Inconsistency: a PM store whose value or target
     address carries taint from a live candidate is a *pending* durable
     side effect; it is confirmed the moment the store becomes durable
     (fence or eviction) while the source data is still not persisted.  At
     that instant a crash image is captured: it contains the side effect
     but not the data it depends on — exactly the state a real crash would
     leave behind.
   - PM Synchronization Inconsistency: every persisted update of an
     annotated synchronization variable to a non-initial value is recorded
     (once per (variable, value) pair, cf. "PMRace checks each type of
     update operation for only one time"). *)

type side_effect = {
  se_addr : int;
  se_instr : Instr.t;
  se_tid : int;
  se_addr_flow : bool; (* taint reached the store through its address *)
  se_sources : Candidates.cand list; (* candidates live when the store executed *)
}

type inconsistency = {
  source : Candidates.cand;
  eff_addr : int;
  eff_instr : Instr.t;
  eff_tid : int;
  addr_flow : bool;
  external_effect : bool; (* e.g. a write to disk or a socket *)
  crash : Pmem.Crash_images.state option; (* full crash surface at confirmation *)
  eff_words : int list; (* words carrying the durable side effect *)
}

type sync_var = { sv_name : string; sv_addr : int; sv_len : int; sv_init : int64 }

type sync_event = {
  var : sync_var;
  sy_addr : int;
  sy_value : int64;
  sy_crash : Pmem.Crash_images.state option;
}

(* A finding is reported once per (writing site, reading site, kind,
   effect site): the source's packed candidate key with the effect site
   id below it. *)
let inc_key (source : Candidates.cand) eff_instr =
  let write = Instr.to_int source.write_instr and read = Instr.to_int source.read_instr in
  (Candidates.key ~write ~read source.kind lsl Candidates.site_bits) lor Instr.to_int eff_instr

type t = {
  cands : Candidates.t;
  (* Pending durable side effects, at most one per word (a newer store to
     the word supersedes it), in word-indexed slots, as XFDetector keeps
     per-address persistence facts in shadow maps.  The slot array is
     allocated with the first pending effect: most recovery runs have
     none.  [pend_words] stacks every word whose slot was filled since the
     last reset (a word emptied and filled again is stacked again), so a
     reset empties the set in O(fills), without a pool-sized walk or a new
     table; [pend_live] counts the filled slots. *)
  mutable pend : side_effect option array;
  mutable pend_words : int array;
  mutable pend_len : int;
  mutable pend_live : int;
  mutable inconsistencies : inconsistency list;
  uniq_inc : unit Candidates.Tbl.t;
  mutable sync_vars : sync_var list;
  mutable sync_events : sync_event list;
  uniq_sync : (string * int64, unit) Hashtbl.t;
  mutable capture_images : bool;
}

let create ?(capture_images = true) () =
  {
    cands = Candidates.create ();
    pend = [||];
    pend_words = [||];
    pend_len = 0;
    pend_live = 0;
    inconsistencies = [];
    uniq_inc = Candidates.Tbl.create 32;
    sync_vars = [];
    sync_events = [];
    uniq_sync = Hashtbl.create 16;
    capture_images;
  }

(* Back to what [create] gives, in place. *)
let reset t ~capture_images =
  Candidates.reset t.cands;
  for i = 0 to t.pend_len - 1 do
    t.pend.(t.pend_words.(i)) <- None
  done;
  t.pend_len <- 0;
  t.pend_live <- 0;
  t.inconsistencies <- [];
  Candidates.Tbl.reset t.uniq_inc;
  t.sync_vars <- [];
  t.sync_events <- [];
  Hashtbl.reset t.uniq_sync;
  t.capture_images <- capture_images

let pending_at t w = if t.pend_live = 0 then None else t.pend.(w)

let set_pending t pool w se =
  if Array.length t.pend = 0 then begin
    t.pend <- Array.make (Pmem.Pool.size pool) None;
    t.pend_words <- Array.make 64 0
  end;
  (match t.pend.(w) with
  | Some _ -> ()
  | None ->
      if t.pend_len = Array.length t.pend_words then begin
        let bigger = Array.make (2 * t.pend_len) 0 in
        Array.blit t.pend_words 0 bigger 0 t.pend_len;
        t.pend_words <- bigger
      end;
      t.pend_words.(t.pend_len) <- w;
      t.pend_len <- t.pend_len + 1;
      t.pend_live <- t.pend_live + 1);
  t.pend.(w) <- Some se

let clear_pending t w =
  match pending_at t w with
  | Some _ ->
      t.pend.(w) <- None;
      t.pend_live <- t.pend_live - 1
  | None -> ()

let candidates t = t.cands

let annotate_sync t ~name ~addr ~len ~init =
  if len <= 0 then invalid_arg "Checkers.annotate_sync: len must be positive";
  t.sync_vars <- { sv_name = name; sv_addr = addr; sv_len = len; sv_init = init } :: t.sync_vars

(* One source-code annotation may cover many words (e.g. a lock field
   instantiated per bucket); the annotation count is per distinct name, as
   the paper counts programmer effort. *)
let annotation_count t =
  List.sort_uniq String.compare (List.map (fun v -> v.sv_name) t.sync_vars) |> List.length

let sync_var_of_addr t w =
  let rec find = function
    | [] -> None
    | v :: rest -> if w >= v.sv_addr && w < v.sv_addr + v.sv_len then Some v else find rest
  in
  find t.sync_vars

(* Load hook: registers the candidate created by reading non-persisted
   data and returns its id, which the caller attaches to the value's taint
   as a label; -1 when the word is clean.  The writer is read field by
   field, so no option or writer record is allocated. *)
let on_load t pool ~tid ~instr ~addr =
  if not (Pmem.Pool.is_dirty pool addr) then -1
  else
    (Candidates.register t.cands ~addr ~read_instr:instr ~read_tid:tid
       ~write_instr:(Instr.of_int (Pmem.Pool.dirty_instr pool addr))
       ~write_tid:(Pmem.Pool.dirty_tid pool addr))
      .Candidates.id

(* A taint label is "live" when the data it came from is still dirty: a
   crash now would lose the source while the dependent effect survives.
   [live_sources t pool taint acc] puts the live sources of [taint] in
   front of [acc], in increasing label order: the fold walks the labels
   newest first and conses.  A label this checker never issued (one that
   outlived a [reset] in a value the program still holds) is skipped. *)
let live_sources t pool taint acc =
  if Taint.is_empty taint then acc (* label 0: the common case, no closure *)
  else
    let n = Candidates.dynamic_count t.cands in
    Taint.fold
      (fun l acc ->
        if l >= n then acc
        else
          let c = Candidates.get t.cands l in
          if Pmem.Pool.is_dirty pool c.Candidates.addr then c :: acc else acc)
      taint acc

(* Store hook: register a pending durable side effect when the stored value
   or the store address is derived from live non-persisted data, address
   sources first.  A newer store to the same word supersedes the old
   pending effect.  An address outside the pool is left to the pool's own
   bounds check. *)
let on_store t pool ~tid ~instr ~addr ~value_taint ~addr_taint =
  let v_sources = live_sources t pool value_taint [] in
  let sources = live_sources t pool addr_taint v_sources in
  if addr >= 0 && addr < Pmem.Pool.size pool then
    if sources <> [] then
      set_pending t pool addr
        {
          se_addr = addr;
          se_instr = instr;
          se_tid = tid;
          se_addr_flow = sources != v_sources (* the address added sources *);
          se_sources = sources;
        }
    else if t.pend_live > 0 then clear_pending t addr

let record_inconsistency t pool ~source ~eff_addr ~eff_instr ~eff_tid ~addr_flow ~external_effect
    ~eff_words =
  let key = inc_key source eff_instr in
  if not (Candidates.Tbl.mem t.uniq_inc key) then begin
    Candidates.Tbl.add t.uniq_inc key ();
    let crash = if t.capture_images then Some (Pmem.Crash_images.capture pool) else None in
    t.inconsistencies <-
      { source; eff_addr; eff_instr; eff_tid; addr_flow; external_effect; crash; eff_words }
      :: t.inconsistencies
  end

(* Persistence hook: called with the words that just became durable (after
   a fence or an eviction).  Confirms pending side effects whose sources
   are still non-persisted, and records sync-variable updates that are now
   durable with a non-initial value. *)
let on_persisted t pool persisted =
  let confirm se =
    List.iter
      (fun source ->
        (* A source that persisted first closed the window: benign. *)
        if Pmem.Pool.is_dirty pool source.Candidates.addr then
          record_inconsistency t pool ~source ~eff_addr:se.se_addr ~eff_instr:se.se_instr
            ~eff_tid:se.se_tid ~addr_flow:se.se_addr_flow ~external_effect:false
            ~eff_words:[ se.se_addr ])
      se.se_sources
  in
  (* Nothing to confirm or record (e.g. during pool initialisation, before
     any annotation): skip the walk. *)
  if t.pend_live > 0 || t.sync_vars <> [] then
    List.iter
      (fun w ->
        (match pending_at t w with
        | Some se ->
            clear_pending t w;
            confirm se
        | None -> ());
        match sync_var_of_addr t w with
        | Some var ->
            let v = Pmem.Pool.peek pool w in
            if not (Int64.equal v var.sv_init) && not (Hashtbl.mem t.uniq_sync (var.sv_name, v))
            then begin
              Hashtbl.add t.uniq_sync (var.sv_name, v) ();
              let crash =
                if t.capture_images then Some (Pmem.Crash_images.capture pool) else None
              in
              t.sync_events <- { var; sy_addr = w; sy_value = v; sy_crash = crash }
                :: t.sync_events
            end
        | None -> ())
      persisted

(* Durable side effects outside PM (disk writes, sockets, ...): confirmed
   immediately since they cannot be rolled back by a crash. *)
let on_external_effect t pool ~tid ~instr ~taint =
  List.iter
    (fun source ->
      record_inconsistency t pool ~source ~eff_addr:(-1) ~eff_instr:instr ~eff_tid:tid
        ~addr_flow:false ~external_effect:true ~eff_words:[])
    (live_sources t pool taint [])

let inconsistencies t = List.rev t.inconsistencies
let sync_events t = List.rev t.sync_events

let pending_effects t =
  let acc = ref [] in
  for i = 0 to t.pend_len - 1 do
    match t.pend.(t.pend_words.(i)) with Some se -> acc := se :: !acc | None -> ()
  done;
  List.sort_uniq (fun a b -> Int.compare a.se_addr b.se_addr) !acc

let pp_inconsistency ppf i =
  Fmt.pf ppf "%a-Inconsistency: write=%a read=%a effect=%a%s%s" Candidates.pp_kind
    i.source.Candidates.kind Instr.pp i.source.Candidates.write_instr Instr.pp
    i.source.Candidates.read_instr Instr.pp i.eff_instr
    (if i.addr_flow then " [addr-flow]" else "")
    (if i.external_effect then " [external]" else "")

let pp_sync_event ppf e =
  Fmt.pf ppf "Sync-Inconsistency: var=%s addr=%d value=%Ld (expected init %Ld)" e.var.sv_name
    e.sy_addr e.sy_value e.var.sv_init
