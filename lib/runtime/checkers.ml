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

type inc_key = { ik_write : Instr.t; ik_read : Instr.t; ik_eff : Instr.t; ik_kind : Candidates.kind }

type t = {
  cands : Candidates.t;
  mutable pending : side_effect list;
  mutable inconsistencies : inconsistency list;
  uniq_inc : (inc_key, unit) Hashtbl.t;
  mutable sync_vars : sync_var list;
  mutable sync_events : sync_event list;
  uniq_sync : (string * int64, unit) Hashtbl.t;
  capture_images : bool;
}

let create ?(capture_images = true) () =
  {
    cands = Candidates.create ();
    pending = [];
    inconsistencies = [];
    uniq_inc = Hashtbl.create 32;
    sync_vars = [];
    sync_events = [];
    uniq_sync = Hashtbl.create 16;
    capture_images;
  }

let candidates t = t.cands

let annotate_sync t ~name ~addr ~len ~init =
  if len <= 0 then invalid_arg "Checkers.annotate_sync: len must be positive";
  t.sync_vars <- { sv_name = name; sv_addr = addr; sv_len = len; sv_init = init } :: t.sync_vars

let sync_vars t = t.sync_vars

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
   crash now would lose the source while the dependent effect survives. *)
let live_sources t pool taint =
  if Taint.is_empty taint then [] (* label 0: the common case, no closure *)
  else
    Taint.labels taint
    |> List.filter_map (fun l ->
           match Candidates.find t.cands l with
           | Some c when Pmem.Pool.is_dirty pool c.Candidates.addr -> Some c
           | Some _ | None -> None)

(* Store hook: register a pending durable side effect when the stored value
   or the store address is derived from live non-persisted data. *)
let on_store t pool ~tid ~instr ~addr ~value_taint ~addr_taint =
  let v_sources = live_sources t pool value_taint in
  let a_sources = live_sources t pool addr_taint in
  (* A newer store to the same word supersedes the old pending effect. *)
  if List.exists (fun se -> se.se_addr = addr) t.pending then
    t.pending <- List.filter (fun se -> se.se_addr <> addr) t.pending;
  if v_sources <> [] || a_sources <> [] then
    t.pending <-
      {
        se_addr = addr;
        se_instr = instr;
        se_tid = tid;
        se_addr_flow = a_sources <> [];
        se_sources = a_sources @ v_sources;
      }
      :: t.pending

let record_inconsistency t pool ~source ~eff_addr ~eff_instr ~eff_tid ~addr_flow ~external_effect
    ~eff_words =
  let key =
    {
      ik_write = source.Candidates.write_instr;
      ik_read = source.Candidates.read_instr;
      ik_eff = eff_instr;
      ik_kind = source.Candidates.kind;
    }
  in
  if not (Hashtbl.mem t.uniq_inc key) then begin
    Hashtbl.add t.uniq_inc key ();
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
    match List.filter (fun c -> Pmem.Pool.is_dirty pool c.Candidates.addr) se.se_sources with
    | [] -> () (* the window closed before the effect became durable *)
    | live ->
        List.iter
          (fun source ->
            record_inconsistency t pool ~source ~eff_addr:se.se_addr ~eff_instr:se.se_instr
              ~eff_tid:se.se_tid ~addr_flow:se.se_addr_flow ~external_effect:false
              ~eff_words:[ se.se_addr ])
          live
  in
  (* Nothing to confirm or record (e.g. during pool initialisation, before
     any annotation): skip the walk. *)
  if t.pending <> [] || t.sync_vars <> [] then
    List.iter
      (fun w ->
        (match List.find_opt (fun se -> se.se_addr = w) t.pending with
        | Some se ->
            t.pending <- List.filter (fun se' -> se' != se) t.pending;
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
    (live_sources t pool taint)

let inconsistencies t = List.rev t.inconsistencies
let sync_events t = List.rev t.sync_events
let pending_effects t = t.pending

let inconsistency_count t kind =
  List.length
    (List.filter (fun i -> i.source.Candidates.kind = kind) t.inconsistencies)

let pp_inconsistency ppf i =
  Fmt.pf ppf "%a-Inconsistency: write=%a read=%a effect=%a%s%s" Candidates.pp_kind
    i.source.Candidates.kind Instr.pp i.source.Candidates.write_instr Instr.pp
    i.source.Candidates.read_instr Instr.pp i.eff_instr
    (if i.addr_flow then " [addr-flow]" else "")
    (if i.external_effect then " [external]" else "")

let pp_sync_event ppf e =
  Fmt.pf ppf "Sync-Inconsistency: var=%s addr=%d value=%Ld (expected init %Ld)" e.var.sv_name
    e.sy_addr e.sy_value e.var.sv_init
