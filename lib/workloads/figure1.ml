(* The running example of the paper's Figure 1, as a tiny fuzzing target.

   Thread-1 (a [Put]): acquires the persistent lock g, stores a value to
   the shared variable x, performs unrelated work, and only then flushes x.
   Thread-2 (a [Get]): reads x (possibly non-persisted), writes what it
   read to y and flushes y immediately — a durable side effect based on
   non-persisted data.  A crash after y persists and before x does leaves
   y <> x in PM: a PM Inter-thread Inconsistency.  The persisted lock g is
   never reinitialised by recovery: a PM Synchronization Inconsistency. *)

module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Env = Runtime.Env

let x_off = Pmdk.Layout.root_base (* shared variable x *)
let y_off = Pmdk.Layout.root_base + 8 (* y, in its own cache line *)
let g_off = Pmdk.Layout.root_base + 16 (* the lock g *)

let i_lock = Instr.site "figure1.c:lock_g"
let i_unlock = Instr.site "figure1.c:unlock_g"
let i_store_x = Instr.site "figure1.c:store_x"
let i_flush_x = Instr.site "figure1.c:flush_x"
let i_read_x = Instr.site "figure1.c:read_x"
let i_store_y = Instr.site "figure1.c:store_y"
let i_busy = Instr.site "figure1.c:busy_work"
let i_b_put = Instr.site "figure1.c:put_entry"
let i_b_get = Instr.site "figure1.c:get_entry"

let init (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-1) in
  Pmdk.Objpool.create ctx

let annotate (env : Env.t) =
  Env.annotate_sync env ~name:"figure1.c:g" ~addr:g_off ~len:1 ~init:0L

let put ctx value =
  Mem.branch ctx ~instr:i_b_put;
  Mem.spin_lock ~persist_lock:true ctx ~instr:i_lock (Tval.of_int g_off);
  Mem.store ctx ~instr:i_store_x (Tval.of_int x_off) (Tval.of_int value);
  (* Unrelated work before the flush: the inconsistency window. *)
  for i = 0 to 3 do
    ignore (Mem.load ctx ~instr:i_busy (Tval.of_int (y_off + 1 + i)))
  done;
  Mem.persist ctx ~instr:i_flush_x (Tval.of_int x_off);
  Mem.unlock ~persist_lock:true ctx ~instr:i_unlock (Tval.of_int g_off)

let get ctx =
  Mem.branch ctx ~instr:i_b_get;
  let x = Mem.load ctx ~instr:i_read_x (Tval.of_int x_off) in
  Mem.store ctx ~instr:i_store_y (Tval.of_int y_off) x;
  Mem.persist ctx ~instr:i_store_y (Tval.of_int y_off)

let run_op ctx (op : Pmrace.Seed.op) =
  match op with
  | Put { value; _ } | Update { value; _ } -> put ctx value
  | Get _ | Scan _ -> get ctx
  | Delete _ -> put ctx 0
  | Incr _ | Decr _ | Append _ | Prepend _ -> get ctx
  | Cas { value; _ } -> put ctx value
  | Touch _ | Flush_all | Stats -> get ctx

(* Figure 1's program has no recovery code at all. *)
let recover (_ : Env.t) = ()

let target : Pmrace.Target.t =
  {
    name = "figure1";
    version = "paper-fig1";
    scope = "running example";
    concurrency = "lock-based";
    pool_words = 1024;
    expensive_init = true;
    init;
    annotate;
    recover;
    run_op;
    profile =
      {
        Pmrace.Seed.supported = [ Pmrace.Seed.KPut; Pmrace.Seed.KGet ];
        key_range = 4;
        value_range = 100;
        threads = 2;
        ops_per_thread = 3;
      };
    known_bugs =
      [
        {
          kb_id = 101;
          kb_type = `Inter;
          kb_new = true;
          kb_write_site = Some "figure1.c:store_x";
          kb_read_site = Some "figure1.c:read_x";
          kb_description = "y written from non-persisted x";
          kb_consequence = "y <> x after recovery";
        };
        {
          kb_id = 102;
          kb_type = `Sync;
          kb_new = true;
          kb_write_site = Some "figure1.c:g";
          kb_read_site = None;
          kb_description = "persistent lock g not reinitialised";
          kb_consequence = "hang";
        };
      ];
    whitelist_sites = [];
  }

(* ------------------------------------------------------------------ *)
(* figure1-planted: the opt-in ground-truth variant for the
   second-generation detectors.  Two seeded taxonomy bugs on top of the
   Figure 1 program:

   - ordering: [put] releases the lock BEFORE x is flushed, so the
     likely invariant "store_x durable before unlock_g" (mined from the
     correct figure1) is violated in every execution;
   - missing recovery-path flush: recovery writes a progress marker to
     PM and never flushes it, so the marker is dirty when recovery ends.

   Opt-in: reachable through [Registry.planted] / [Registry.find] only,
   never listed in [Registry.names], so ordinary sessions cannot pick it
   up by accident.  The one extra site is registered lazily — a toplevel
   [Instr.site] here would shift every later site id and break the
   pinned coverage goldens. *)

let r_off = Pmdk.Layout.root_base + 24 (* recovery progress marker *)
let i_recover_mark = lazy (Instr.site "figure1.c:recover_mark")

let put_planted ctx value =
  Mem.branch ctx ~instr:i_b_put;
  Mem.spin_lock ~persist_lock:true ctx ~instr:i_lock (Tval.of_int g_off);
  Mem.store ctx ~instr:i_store_x (Tval.of_int x_off) (Tval.of_int value);
  for i = 0 to 3 do
    ignore (Mem.load ctx ~instr:i_busy (Tval.of_int (y_off + 1 + i)))
  done;
  (* BUG (ordering): the lock is released while x is still volatile. *)
  Mem.unlock ~persist_lock:true ctx ~instr:i_unlock (Tval.of_int g_off);
  Mem.persist ctx ~instr:i_flush_x (Tval.of_int x_off)

let run_op_planted ctx (op : Pmrace.Seed.op) =
  match op with
  | Put { value; _ } | Update { value; _ } -> put_planted ctx value
  | Get _ | Scan _ -> get ctx
  | Delete _ -> put_planted ctx 0
  | Incr _ | Decr _ | Append _ | Prepend _ -> get ctx
  | Cas { value; _ } -> put_planted ctx value
  | Touch _ | Flush_all | Stats -> get ctx

let recover_planted (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-2) in
  (* BUG (missing recovery-path flush): the marker never reaches durable. *)
  Mem.store ctx ~instr:(Lazy.force i_recover_mark) (Tval.of_int r_off) (Tval.of_int 1)

let planted : Pmrace.Target.t =
  {
    target with
    name = "figure1-planted";
    scope = "seeded taxonomy bugs (detector ground truth)";
    run_op = run_op_planted;
    recover = recover_planted;
    known_bugs =
      target.known_bugs
      @ [
          {
            kb_id = 103;
            kb_type = `Other;
            kb_new = true;
            kb_write_site = Some "figure1.c:unlock_g";
            kb_read_site = None;
            kb_description = "lock released before x is durable (ordering)";
            kb_consequence = "order store_x -> unlock_g invariant violated";
          };
          {
            kb_id = 104;
            kb_type = `Other;
            kb_new = true;
            kb_write_site = Some "figure1.c:recover_mark";
            kb_read_site = None;
            kb_description = "recovery marker written but never flushed";
            kb_consequence = "marker lost at the next crash";
          };
        ];
  }
