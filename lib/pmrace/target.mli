(** A target under test: the adapter each PM system implements for the
    fuzzer (driver ops, pool initialisation, and post-failure recovery). *)

type known_bug = {
  kb_id : int;  (** the paper's bug number (Table 2) *)
  kb_type : [ `Inter | `Sync | `Intra | `Other ];
  kb_new : bool;
  kb_write_site : string option;
  kb_read_site : string option;
  kb_description : string;
  kb_consequence : string;
}

type t = {
  name : string;
  version : string;  (** commit id of the original system (Table 1) *)
  scope : string;
  concurrency : string;
  pool_words : int;
  expensive_init : bool;
      (** Always true: every target runs on the persistent engine.  Read
          only by the benchmark harness; deleted with the next benchmark
          change. *)
  init : Runtime.Env.t -> unit;
  annotate : Runtime.Env.t -> unit;
      (** register [pm_sync_var_hint] annotations; called for every
          environment, including checkpoint-restored and post-crash ones *)
  recover : Runtime.Env.t -> unit;  (** post-failure recovery (§4.4) *)
  run_op : Runtime.Env.ctx -> Seed.op -> unit;
  profile : Seed.profile;
  known_bugs : known_bug list;  (** seeded ground truth for Tables 2/5 *)
  whitelist_sites : string list;  (** default whitelist entries (§4.4) *)
}

val pp_known_bug : Format.formatter -> known_bug -> unit
