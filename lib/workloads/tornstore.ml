(* torn-planted: a seeded torn-store bug that only an enumerated crash
   image exposes (ground truth for {!Pmem.Crash_images}).

   A writer (a [Put]) stores the same value to two fields A and B on
   different cache lines and never flushes either — the pair is meant to
   be persisted atomically later, so recovery treats "A = B" as the sign
   of a consistent pair.  A reader (a [Get]) loads B (possibly
   non-persisted), derives DST from it, and persists DST immediately —
   the classic durable side effect of volatile data, confirmed by the
   inter-thread checker with crash surface {A, B} in flight.

   Recovery rolls DST back whenever the source pair is consistent, so on
   the *base* crash image (neither A nor B drained: both still 0) the
   candidate validates as a false positive — single-image validation
   misses the bug.  But A and B sit on different cache lines, so the
   hardware may evict A's line and not B's: on that enumerated image the
   pair is torn (A <> B), recovery wrongly trusts it and keeps DST.  The
   bug surfaces only at a crash-image budget >= 2 ([--crash-images 4] in
   the CI smoke).

   Opt-in via [Registry.planted], like figure1-planted.  Every site here
   is registered lazily: this module is reachable only through the
   registry, and a toplevel [Instr.site] would shift every later site id
   and break the pinned coverage goldens. *)

module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Env = Runtime.Env

let a_off = Pmdk.Layout.root_base (* field A *)
let b_off = Pmdk.Layout.root_base + 8 (* field B, its own cache line *)
let dst_off = Pmdk.Layout.root_base + 16 (* derived value, its own line *)

let i_store_a = lazy (Instr.site "tornstore.c:store_a")
let i_store_b = lazy (Instr.site "tornstore.c:store_b")
let i_read_b = lazy (Instr.site "tornstore.c:read_b")
let i_store_dst = lazy (Instr.site "tornstore.c:store_dst")
let i_flush_dst = lazy (Instr.site "tornstore.c:flush_dst")
let i_b_put = lazy (Instr.site "tornstore.c:put_entry")
let i_b_get = lazy (Instr.site "tornstore.c:get_entry")
let i_r_read = lazy (Instr.site "tornstore.c:recover_read")
let i_r_reset = lazy (Instr.site "tornstore.c:recover_reset")

let init (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-1) in
  Pmdk.Objpool.create ctx

let annotate (_ : Env.t) = ()

(* The pair is written cached and never flushed here; a later (never
   modelled) transaction would persist it atomically.  [v + 1] keeps the
   stored value distinguishable from the initial 0. *)
let put ctx value =
  Mem.branch ctx ~instr:(Lazy.force i_b_put);
  let v = Tval.of_int (value + 1) in
  Mem.store ctx ~instr:(Lazy.force i_store_a) (Tval.of_int a_off) v;
  Mem.store ctx ~instr:(Lazy.force i_store_b) (Tval.of_int b_off) v

let get ctx =
  Mem.branch ctx ~instr:(Lazy.force i_b_get);
  let x = Mem.load ctx ~instr:(Lazy.force i_read_b) (Tval.of_int b_off) in
  Mem.store ctx ~instr:(Lazy.force i_store_dst) (Tval.of_int dst_off) x;
  Mem.persist ctx ~instr:(Lazy.force i_flush_dst) (Tval.of_int dst_off)

let run_op ctx (op : Pmrace.Seed.op) =
  match op with
  | Put { value; _ } | Update { value; _ } -> put ctx value
  | Get _ | Scan _ -> get ctx
  | Delete _ -> put ctx 0
  | Incr _ | Decr _ | Append _ | Prepend _ -> get ctx
  | Cas { value; _ } -> put ctx value
  | Touch _ | Flush_all | Stats -> get ctx

(* Recovery validates DST against the source pair: a consistent pair
   (A = B) means DST may hold a value the crash made durable too early,
   so it is rolled back.  BUG: a torn pair (one line drained, the other
   not) is treated as evidence that the pair-write was mid-flight and
   DST is kept — exactly backwards, the torn case is when DST's source
   was never durable. *)
let recover (env : Env.t) =
  let ctx = Env.ctx env ~tid:(-2) in
  let read off = Mem.load ctx ~instr:(Lazy.force i_r_read) (Tval.of_int off) in
  let a = read a_off and b = read b_off and d = read dst_off in
  if (not (Int64.equal (Tval.v d) 0L)) && Int64.equal (Tval.v a) (Tval.v b) then begin
    Mem.store ctx ~instr:(Lazy.force i_r_reset) (Tval.of_int dst_off) (Tval.of_int 0);
    Mem.persist ctx ~instr:(Lazy.force i_r_reset) (Tval.of_int dst_off)
  end

let target : Pmrace.Target.t =
  {
    name = "torn-planted";
    version = "crash-image ground truth";
    scope = "seeded torn-store bug (enumeration ground truth)";
    concurrency = "lock-free";
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
          kb_id = 105;
          kb_type = `Inter;
          kb_new = true;
          kb_write_site = Some "tornstore.c:store_b";
          kb_read_site = Some "tornstore.c:read_b";
          kb_description = "DST persisted from non-persisted B; recovery keeps DST on a torn A/B pair";
          kb_consequence = "only a non-default enumerated crash image (A's line evicted) survives recovery";
        };
      ];
    whitelist_sites = [];
  }
