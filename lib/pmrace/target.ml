(* A target under test: the adapter each PM system implements.

   Mirrors the paper's setup: a driver program issues requests through the
   system's interface from several worker threads (§6.1); [init] builds the
   initial pool (the expensive libpmemobj-style initialisation that
   in-memory checkpoints amortise, §5), and [recover] is the system's
   post-failure recovery code run during validation (§4.4). *)

type known_bug = {
  kb_id : int; (* the paper's bug number (Table 2) *)
  kb_type : [ `Inter | `Sync | `Intra | `Other ];
  kb_new : bool;
  kb_write_site : string option;
  kb_read_site : string option;
  kb_description : string;
  kb_consequence : string;
}

type t = {
  name : string;
  version : string;
  scope : string;
  concurrency : string;
  pool_words : int;
  expensive_init : bool;
      (* always true; read only by the benchmark harness *)
  init : Runtime.Env.t -> unit;
  annotate : Runtime.Env.t -> unit;
  (* register pm_sync_var_hint annotations; called for every environment,
     including ones restored from a checkpoint or booted from a crash
     image, since annotations describe the (static) pool layout *)
  recover : Runtime.Env.t -> unit;
  run_op : Runtime.Env.ctx -> Seed.op -> unit;
  profile : Seed.profile;
  known_bugs : known_bug list; (* seeded ground truth, for Table 2/5 *)
  whitelist_sites : string list; (* default whitelist entries (§4.4) *)
}

let pp_known_bug ppf b =
  let ty =
    match b.kb_type with
    | `Inter -> "Inter"
    | `Sync -> "Sync"
    | `Intra -> "Intra"
    | `Other -> "Other"
  in
  Fmt.pf ppf "Bug %d [%s]%s %s -> %s: %s (%s)" b.kb_id ty
    (if b.kb_new then " (new)" else "")
    (Option.value ~default:"-" b.kb_write_site)
    (Option.value ~default:"-" b.kb_read_site)
    b.kb_description b.kb_consequence
