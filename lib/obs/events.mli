(** Structured session events with pluggable sinks.

    The fuzzer emits one {!payload} per interesting transition
    (campaign start/end, new alias pair, candidate discovery, validation
    verdict, worker merge); sinks subscribe before the session starts.
    A sink is any [event -> unit] ({!attach}); {!attach_jsonl} writes a
    JSONL file stream (the CLI's [--trace-out FILE]).  Emission with no
    sinks attached is a single list-head check.

    Emission is mutex-serialised across worker domains, so JSONL lines
    never interleave.  Timestamps are seconds since {!create}, read from
    the monotonic {!Clock}. *)

type payload =
  | Session_start of { target : string; workers : int; max_campaigns : int; master_seed : int }
  | Campaign_start of {
      campaign : int;
      worker : int;
      seed_id : int;
      sched_seed : int;
      policy : string;
    }
  | Campaign_end of {
      campaign : int;
      worker : int;
      improved : bool;  (** the campaign contributed new coverage bits *)
      hung : bool;
      latency : float;  (** seconds, execution + merge + validation *)
    }
  | New_alias_pair of { campaign : int; worker : int; write_site : string; read_site : string }
  | Candidate_found of {
      campaign : int;
      worker : int;
      kind : string;  (** "inter" | "intra" | "sync" | "invariant" *)
      write_site : string;
          (** sync: the annotated variable name; invariant: its label *)
      read_site : string;  (** sync: ""; invariant: the violating store's site *)
    }
  | Validation_verdict of {
      campaign : int;
      worker : int;
      kind : string;
      site : string;  (** write site, sync variable or invariant label of the finding *)
      verdict : string;  (** "bug" | "bug-recovery-hang" | "validated-fp" | "whitelisted-fp" *)
    }
  | Crash_image_bug of {
      campaign : int;
      worker : int;
      kind : string;
      site : string;
      image_index : int;
          (** the enumerated crash image the bug reproduced on — emitted
              only for non-default images (index > 0), i.e. bugs that
              single-image validation would have missed *)
    }
  | Worker_merge of {
      campaign : int;
      worker : int;
      alias_bits : int;  (** shared coverage after the merge *)
      branch_bits : int;
    }
  | Session_end of { campaigns : int; wall : float; bugs : int }

type event = { ev_time : float;  (** seconds since {!create} *) ev_payload : payload }

type t

val create : unit -> t

val attach : t -> (event -> unit) -> unit
(** Subscribe a generic sink.  Attach before the session runs — emission
    from worker domains is serialised, attachment is not. *)

val attach_jsonl : t -> out_channel -> unit
(** Write each event as one JSON object per line.  The channel is flushed
    per line; closing it remains the caller's job. *)

val emit : t -> payload -> unit
(** Stamp the time and fan out to every sink.  With no sinks attached this
    is one list-head check. *)

val to_json : event -> Json.t
