(* Execution environment: one per fuzz campaign.

   Binds together the PM pool, the checkers, the volatile DRAM store, the
   shadow taint memory, the interleaving policy, and the event listeners
   that feed coverage metrics and the shared-access queue. *)

type point_kind = P_load | P_store | P_movnt | P_clwb | P_fence | P_cas
type point = { kind : point_kind; instr : Instr.t; addr : int (* -1 when not applicable *) }

type event =
  | Ev_load of { instr : Instr.t; tid : int; addr : int; dirty : bool }
  | Ev_store of { instr : Instr.t; tid : int; addr : int }
  | Ev_movnt of { instr : Instr.t; tid : int; addr : int }
  | Ev_clwb of { instr : Instr.t; tid : int; addr : int; dirty_words : int }
  | Ev_fence of { instr : Instr.t; tid : int; persisted : int list }
  | Ev_branch of { instr : Instr.t; tid : int }

type t = {
  pool : Pmem.Pool.t;
  mutable checkers : Checkers.t;
  dram : Dram.t;
  mem_taint : (int, Taint.t) Hashtbl.t;
  mutable policy : policy;
  mutable listeners : (event -> unit) list;
  (* Pre-bound listeners: installed once per worker (not rebuilt per
     campaign) and dispatched before the transient [listeners].  They
     survive [reset]. *)
  mutable bound : (event -> unit) array;
  mutable evict_seed : int;
  mutable evict_rng : Sched.Rng.t;
  mutable evict_prob : float;
}

and ctx = { env : t; tid : int }

and policy = { before : ctx -> point -> unit; after : ctx -> point -> unit }

let null_policy = { before = (fun _ _ -> ()); after = (fun _ _ -> ()) }

(* The plain interleaving policy: every instrumented operation is a
   preemption point. *)
let preempt_policy = { before = (fun _ _ -> Sched.Scheduler.yield ()); after = (fun _ _ -> ()) }

let default_evict_seed = 7

let create ?(capture_images = true) ?(evict_prob = 0.) ?(evict_seed = default_evict_seed)
    ?(eadr = false)
    ~pool_words () =
  {
    pool = Pmem.Pool.create ~eadr ~words:pool_words ();
    checkers = Checkers.create ~capture_images ();
    dram = Dram.create ();
    mem_taint = Hashtbl.create 256;
    policy = null_policy;
    listeners = [];
    bound = [||];
    evict_seed;
    evict_rng = Sched.Rng.create evict_seed;
    evict_prob;
  }

(* Boot an environment from a crash image: the post-failure world.  DRAM
   state, shadow taint and checker state all start fresh. *)
let of_image ?(capture_images = false) (image : Pmem.Pool.image) =
  {
    pool = Pmem.Pool.of_image image;
    checkers = Checkers.create ~capture_images ();
    dram = Dram.create ();
    mem_taint = Hashtbl.create 256;
    policy = null_policy;
    listeners = [];
    bound = [||];
    evict_seed = default_evict_seed;
    evict_rng = Sched.Rng.create default_evict_seed;
    evict_prob = 0.;
  }

let ctx t ~tid = { env = t; tid }
let set_policy t p = t.policy <- p
let add_listener t f = t.listeners <- f :: t.listeners
let install_bound t fs = t.bound <- fs

let emit t ev =
  let bound = t.bound in
  for i = 0 to Array.length bound - 1 do
    bound.(i) ev
  done;
  List.iter (fun f -> f ev) t.listeners

let mem_taint t addr =
  match Hashtbl.find_opt t.mem_taint addr with Some taint -> taint | None -> Taint.empty

let set_mem_taint t addr taint =
  if Taint.is_empty taint then Hashtbl.remove t.mem_taint addr
  else Hashtbl.replace t.mem_taint addr taint

let annotate_sync t ~name ~addr ~len ~init = Checkers.annotate_sync t.checkers ~name ~addr ~len ~init

(* Discard checker state accumulated so far (e.g. during pool
   initialisation) while keeping sync-variable annotations.  Campaign
   results must only reflect the fuzzed execution. *)
let reset_checkers ?(capture_images = true) t =
  let vars = Checkers.sync_vars t.checkers in
  t.checkers <- Checkers.create ~capture_images ();
  List.iter
    (fun v ->
      Checkers.annotate_sync t.checkers ~name:v.Checkers.sv_name ~addr:v.Checkers.sv_addr
        ~len:v.Checkers.sv_len ~init:v.Checkers.sv_init)
    vars;
  Hashtbl.reset t.mem_taint

(* Return a reused environment to its just-created state — everything a
   fresh [create] would give, except the pool (reset separately via
   [Pmem.Pool.reset_to_snapshot]) and the pre-bound listener array, which
   is installed once per worker and deliberately survives.  Sync-variable
   annotations do NOT survive: the caller re-annotates, exactly as it would
   on a fresh environment. *)
let reset ?(capture_images = true) t =
  t.checkers <- Checkers.create ~capture_images ();
  Dram.clear t.dram;
  Hashtbl.reset t.mem_taint;
  t.policy <- null_policy;
  t.listeners <- [];
  t.evict_rng <- Sched.Rng.create t.evict_seed

(* [of_image] without the allocation: the reused recovery world of
   post-failure validation.  Everything [reset] leaves alone is put back
   to what [of_image] gives too — no pre-bound listeners, the default
   eviction seed, no eviction — and the pool re-boots in place. *)
let boot ?delta t image =
  t.evict_seed <- default_evict_seed;
  reset ~capture_images:false t;
  t.bound <- [||];
  t.evict_prob <- 0.;
  Pmem.Pool.boot ?delta t.pool image
