(* Execution environment: one per fuzz campaign.

   Binds together the PM pool, the checkers, the volatile DRAM store, the
   shadow taint memory, the interleaving policy, and the event listeners
   that feed coverage metrics and the shared-access queue. *)

type event =
  | Ev_load of { instr : Instr.t; tid : int; addr : int; dirty : bool }
  | Ev_store of { instr : Instr.t; tid : int; addr : int }
  | Ev_movnt of { instr : Instr.t; tid : int; addr : int }
  | Ev_clwb of { instr : Instr.t; tid : int; addr : int; dirty_words : int }
  | Ev_fence of { instr : Instr.t; tid : int; persisted : int list }
  | Ev_branch of { instr : Instr.t; tid : int }

type t = {
  pool : Pmem.Pool.t;
  checkers : Checkers.t;
  dram : Dram.t;
  (* Shadow taint, DataFlowSanitizer style: one label set per pool word,
     [Taint.empty] (an immediate) meaning untainted.  Every word that has
     been tainted since the last clear is on the [tainted] stack exactly
     once ([on_stack] dedupes), so clearing is O(tainted words). *)
  mem_taint : Taint.t array;
  mutable tainted : int array;
  mutable tainted_len : int;
  on_stack : Bytes.t;
  mutable policy : policy;
  (* Never written in place: [boot] installs the caller's array (an
     engine's, built once per worker) and [add_listener] replaces it with
     a longer copy, so the caller's array stays as it was given. *)
  mutable listeners : (event -> unit) array;
}

and ctx = { env : t; tid : int }

and policy = { before : ctx -> Footprint.t -> unit; after : ctx -> Footprint.t -> unit }

let null_policy = { before = (fun _ _ -> ()); after = (fun _ _ -> ()) }

(* The plain interleaving policy: every instrumented operation is a
   preemption point. *)
let preempt_policy = { before = (fun _ _ -> Sched.Scheduler.yield ()); after = (fun _ _ -> ()) }

let make ~capture pool =
  let words = Pmem.Pool.size pool in
  {
    pool;
    checkers = Checkers.create ~capture ();
    dram = Dram.create ();
    mem_taint = Array.make words Taint.empty;
    tainted = Array.make 64 0;
    tainted_len = 0;
    on_stack = Bytes.make words '\000';
    policy = null_policy;
    listeners = [||];
  }

let create ?(capture = Checkers.all) ~pool_words () =
  make ~capture (Pmem.Pool.create ~words:pool_words ())

(* Boot an environment from a crash image: the post-failure world.  DRAM
   state, shadow taint and checker state all start fresh. *)
let of_image ?(capture = Checkers.none) (image : Pmem.Pool.image) =
  make ~capture (Pmem.Pool.of_image image)

let ctx t ~tid = { env = t; tid }
let set_policy t p = t.policy <- p
let add_listener t f = t.listeners <- Array.append t.listeners [| f |]

(* Whether any listener would see an event: the instrumented operations
   build no event record when none would. *)
let listening t = Array.length t.listeners > 0

let emit t ev =
  let listeners = t.listeners in
  for i = 0 to Array.length listeners - 1 do
    listeners.(i) ev
  done

let mem_taint t addr = t.mem_taint.(addr)

let set_mem_taint t addr taint =
  t.mem_taint.(addr) <- taint;
  if (not (Taint.is_empty taint)) && Bytes.get t.on_stack addr = '\000' then begin
    Bytes.set t.on_stack addr '\001';
    if t.tainted_len = Array.length t.tainted then begin
      let bigger = Array.make (2 * t.tainted_len) 0 in
      Array.blit t.tainted 0 bigger 0 t.tainted_len;
      t.tainted <- bigger
    end;
    t.tainted.(t.tainted_len) <- addr;
    t.tainted_len <- t.tainted_len + 1
  end

let tainted_words t = t.tainted_len

(* Untaint every word on the stack: O(tainted words), not O(pool). *)
let clear_taint t =
  for i = 0 to t.tainted_len - 1 do
    let w = t.tainted.(i) in
    t.mem_taint.(w) <- Taint.empty;
    Bytes.set t.on_stack w '\000'
  done;
  t.tainted_len <- 0

let annotate_sync t ~name ~addr ~len ~init = Checkers.annotate_sync t.checkers ~name ~addr ~len ~init

(* [of_image] without the allocation: return a reused environment to the
   post-failure world of a fresh [of_image ?capture image], rebooting the
   pool in place.  Engine checkouts rewind to a checkpoint this way,
   validation to each crash image.  Sync-variable annotations and
   listeners do NOT survive: the caller re-annotates, and [listeners] is
   the whole listener set the booted run starts with. *)
let boot ?delta ?(capture = Checkers.none) ?(listeners = [||]) t image =
  Checkers.reset t.checkers ~capture;
  Dram.clear t.dram;
  clear_taint t;
  t.policy <- null_policy;
  t.listeners <- listeners;
  Pmem.Pool.boot ?delta t.pool image
