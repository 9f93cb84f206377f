(* Online invariant-violation monitor.

   Wraps an {!Analysis.Invariants.checker} as a campaign listener: every
   instrumented event steps the checker, and each violation whose
   invariant has not fired before (per worker) captures the durable pool
   image at the violating store — the crash image the post-failure
   validator will boot — unless the session validates nothing.  Hits
   accumulate until [drain], which the worker calls after committing the
   campaign, outside the hub lock. *)

module Inv = Analysis.Invariants

type hit = {
  h_inv : Inv.inv;
  h_label : string;
  h_site : Runtime.Instr.t;
  h_addr : int;
  h_words : int list;
  h_crash : Pmem.Crash_images.state option;
}

type t = {
  checker : Inv.checker;
  capture : bool; (* capture a surface at each first violation *)
  seen : (string, unit) Hashtbl.t; (* labels already captured, per worker *)
  mutable hits : hit list; (* current campaign's new hits, reversed *)
}

let create ?(capture = true) specs =
  { checker = Inv.checker specs; capture; seen = Hashtbl.create 16; hits = [] }

let attach t (env : Runtime.Env.t) =
  Inv.reset t.checker;
  Runtime.Env.add_listener env (fun ev ->
      Inv.check_step t.checker
        ~emit:(fun (v : Inv.violation) ->
          let label = Inv.label v.v_inv in
          if not (Hashtbl.mem t.seen label) then begin
            Hashtbl.add t.seen label ();
            let crash =
              if t.capture then Some (Pmem.Crash_images.capture env.Runtime.Env.pool) else None
            in
            t.hits <-
              {
                h_inv = v.v_inv;
                h_label = label;
                h_site = v.v_site;
                h_addr = v.v_addr;
                h_words = v.v_words;
                h_crash = crash;
              }
              :: t.hits
          end)
        ev)

let drain t =
  let hits = List.rev t.hits in
  t.hits <- [];
  hits
