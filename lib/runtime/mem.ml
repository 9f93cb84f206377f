(* The instrumented memory operations — PMRace's hooked functions.

   Every operation (a) runs the policy's [before] hook (where the PM-aware
   scheduler injects cond_wait), (b) performs the access with checker
   bookkeeping, (c) notifies listeners, and (d) runs the policy's [after]
   hook (where cond_signal lives).  Both hooks receive the operation's
   [Footprint.t], its one description: the access kind and the word (or
   line) it touches.  Addresses are tainted values so that layout
   inconsistencies — stores whose *address* derives from non-persisted
   data — are caught (§4.3, data-flow class 2). *)

open Env

exception Stuck of string
(* Raised by spin locks that cannot make progress outside a scheduled
   execution (e.g. an unreleased persistent lock hit during recovery). *)

let word_of addr = Tval.to_int addr

let maybe_evict env =
  if env.evict_prob > 0. && Sched.Rng.float env.evict_rng < env.evict_prob then begin
    let lines = Pmem.Pool.size env.pool / Pmem.Cacheline.words_per_line in
    let line = Sched.Rng.int env.evict_rng lines in
    match Pmem.Pool.evict_line env.pool line with
    | [] -> ()
    | persisted -> Checkers.on_persisted env.checkers env.pool persisted
  end

(* The DFSan label-0 fast path: two empty label sets union to the empty
   set without a call. *)
let union_taint a b =
  if Taint.is_empty a then b else if Taint.is_empty b then a else Taint.union a b

(* Each operation builds its footprint once, for both policy hooks (an
   immediate int: no allocation), and an event record only when a
   listener is installed: init, recovery and untraced replay construct
   none. *)
let load ctx ~instr addr =
  let env = ctx.env in
  let a = word_of addr in
  let fp = Footprint.load a in
  env.policy.before ctx fp;
  let dirty = Pmem.Pool.is_dirty env.pool a in
  let raw = Pmem.Pool.load env.pool a in
  let taint = union_taint (Tval.taint addr) (Env.mem_taint env a) in
  let taint =
    if not dirty then taint
    else Taint.add (Checkers.on_load env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a) taint
  in
  if Env.listening env then Env.emit env (Ev_load { instr; tid = ctx.tid; addr = a; dirty });
  env.policy.after ctx fp;
  Tval.make raw taint

(* The one write path of [store], [movnt] and a successful [cas]: checker
   bookkeeping, the pool write (cached, or non-temporal when [nt]), the
   shadow taint, the eADR persistence hook and the event.  The policy
   hooks and eviction stay with the callers. *)
let[@inline] write ctx ~instr ~nt a addr value =
  let env = ctx.env and tid = ctx.tid in
  Checkers.on_store env.checkers env.pool ~tid ~instr ~addr:a ~value_taint:(Tval.taint value)
    ~addr_taint:(Tval.taint addr);
  if nt then Pmem.Pool.movnt env.pool ~tid ~instr:(Instr.to_int instr) a (Tval.v value)
  else Pmem.Pool.store env.pool ~tid ~instr:(Instr.to_int instr) a (Tval.v value);
  Env.set_mem_taint env a (Tval.taint value);
  (* Under eADR the store is already durable: run the persistence hook so
     sync-variable updates are still detected (§6.6: PM Synchronization
     Inconsistency survives eADR). *)
  if Pmem.Pool.is_eadr env.pool then Checkers.on_persisted env.checkers env.pool [ a ];
  if Env.listening env then
    Env.emit env (if nt then Ev_movnt { instr; tid; addr = a } else Ev_store { instr; tid; addr = a })

let store_common ctx ~instr ~nt addr value =
  let env = ctx.env in
  let a = word_of addr in
  let fp = Footprint.store a in
  env.policy.before ctx fp;
  write ctx ~instr ~nt a addr value;
  env.policy.after ctx fp;
  maybe_evict env

let store ctx ~instr addr value = store_common ctx ~instr ~nt:false addr value
let movnt ctx ~instr addr value = store_common ctx ~instr ~nt:true addr value

let clwb ctx ~instr addr =
  let env = ctx.env in
  let a = word_of addr in
  let fp = Footprint.flush a in
  env.policy.before ctx fp;
  let listening = Env.listening env in
  let dirty_words =
    (* Allocation-free line walk, and only for the event that reports it. *)
    if not listening then 0
    else
      Pmem.Cacheline.fold_line
        (fun n w -> if Pmem.Pool.is_dirty env.pool w then n + 1 else n)
        0 a
  in
  Pmem.Pool.clwb env.pool a;
  if listening then Env.emit env (Ev_clwb { instr; tid = ctx.tid; addr = a; dirty_words });
  env.policy.after ctx fp

let sfence ctx ~instr =
  let env = ctx.env in
  env.policy.before ctx Footprint.fence;
  let persisted = Pmem.Pool.sfence env.pool in
  Checkers.on_persisted env.checkers env.pool persisted;
  if Env.listening env then Env.emit env (Ev_fence { instr; tid = ctx.tid; persisted });
  env.policy.after ctx Footprint.fence

let persist ctx ~instr addr =
  clwb ctx ~instr addr;
  sfence ctx ~instr

(* One CLWB per line the range touches, from the line of its first word
   to the line of its last, whatever the base's offset in its line. *)
let persist_range ctx ~instr addr ~words =
  let base = word_of addr in
  if words > 0 then
    for l = Pmem.Cacheline.line_of_word base to Pmem.Cacheline.line_of_word (base + words - 1) do
      clwb ctx ~instr (Tval.of_int (Pmem.Cacheline.first_word_of_line l))
    done;
  sfence ctx ~instr

(* Compare-and-swap: an atomic read-modify-write, a single preemption
   point whose footprint is [rw] whether or not it succeeds.  The read
   side performs candidate detection like [load]; a successful swap takes
   the stores' write path.  [nt:true] publishes the new value
   non-temporally (never PM-dirty), modelling a lock-free CAS immediately
   followed by a flush of its own line, as PMDK's internals do for
   allocator metadata; listeners see it as [Ev_movnt], like [movnt]. *)
let cas ?(nt = false) ctx ~instr addr ~expect ~value =
  let env = ctx.env in
  let a = word_of addr in
  let fp = Footprint.rw a in
  env.policy.before ctx fp;
  let dirty = Pmem.Pool.is_dirty env.pool a in
  let raw = Pmem.Pool.load env.pool a in
  if dirty then ignore (Checkers.on_load env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a);
  if Env.listening env then Env.emit env (Ev_load { instr; tid = ctx.tid; addr = a; dirty });
  let ok = Int64.equal raw (Tval.v expect) in
  if ok then write ctx ~instr ~nt a addr value;
  env.policy.after ctx fp;
  if ok then maybe_evict env;
  ok

let branch ctx ~instr =
  if Env.listening ctx.env then Env.emit ctx.env (Ev_branch { instr; tid = ctx.tid })

let external_effect ctx ~instr value =
  Checkers.on_external_effect ctx.env.checkers ctx.env.pool ~tid:ctx.tid ~instr
    ~taint:(Tval.taint value)

(* Spin locks over a PM word: 0 = free, 1 = held.  [persist:true] flushes
   the lock word after acquisition/release — that is exactly the persistent
   lock pattern behind the paper's PM Synchronization Inconsistency bugs. *)
let spin_limit = 100_000

let try_lock ctx ~instr addr = cas ctx ~instr addr ~expect:Tval.zero ~value:Tval.one

let spin_lock ?(persist_lock = false) ctx ~instr addr =
  let rec spin n =
    if n > spin_limit then raise (Stuck (Printf.sprintf "spin_lock at %s" (Instr.name instr)));
    if not (try_lock ctx ~instr addr) then spin (n + 1)
  in
  spin 0;
  if persist_lock then persist ctx ~instr addr

let unlock ?(persist_lock = false) ctx ~instr addr =
  store ctx ~instr addr Tval.zero;
  if persist_lock then persist ctx ~instr addr
