(* PM-aware interleaving exploration: the synchronization algorithm of
   Figure 6.

   Given one entry from the shared-access priority queue, loads of the
   entry's address are *sync points*: a thread arriving at one executes
   cond_wait, spinning (yielding) until a writer thread signals after its
   store to the same address — i.e. after the data became visible but
   before it is flushed.  This drives readers into reading non-persisted
   data (PM Inter-thread Inconsistency Candidates).

   The three pitfalls of §4.2.2 are handled exactly as in the paper:
   - Pitfall 1: once signalled, cond_wait is disabled for the rest of the
     campaign (the condition variable [m] stays set).
   - Pitfall 2: when *all* worker threads are blocked in cond_wait, one
     randomly chosen thread is made privileged and bypasses all waits.
   - Pitfall 3: when some threads stay blocked past the hang threshold,
     the sync point is disabled and the number of cond_wait executions to
     skip is saved, so the next campaign on the same seed skips the
     unnecessary blocking. *)

module Rng = Sched.Rng
module Env = Runtime.Env

type t = {
  entry : Shared_queue.entry;
  rng : Rng.t;
  nthreads : int;
  writer_wait : int; (* yields the writer performs after signalling *)
  block_threshold : int; (* cond_wait loops before a thread counts as blocked *)
  mutable m : bool; (* the condition variable *)
  mutable is_enabled : bool;
  mutable skip : int; (* executions of cond_wait to skip (Pitfall 3) *)
  mutable waits_executed : int;
  mutable privileged : int option; (* tid allowed to bypass (Pitfall 2) *)
  mutable disabled_by_hang : bool;
  mutable signalled : bool;
  waiting : (int, int) Hashtbl.t; (* tid -> current loop count *)
}

let create ?(writer_wait = 400) ?(block_threshold = 60) ~rng ~nthreads ~skip entry =
  {
    entry;
    rng;
    nthreads;
    writer_wait;
    block_threshold;
    m = false;
    is_enabled = true;
    skip;
    waits_executed = 0;
    privileged = None;
    disabled_by_hang = false;
    signalled = false;
    waiting = Hashtbl.create 8;
  }

(* A CAS ([rw]) of the entry's word is both a sync load and a sync store;
   a store footprint covers [movnt] too.  Flushes and fences are
   neither. *)
let is_sync_load t fp =
  fp = Runtime.Footprint.load t.entry.addr || fp = Runtime.Footprint.rw t.entry.addr

let is_sync_store t fp =
  fp = Runtime.Footprint.store t.entry.addr || fp = Runtime.Footprint.rw t.entry.addr

let bypassed t tid = match t.privileged with Some p -> p = tid | None -> false

(* cond_wait (Figure 6, lines 3-24). *)
let cond_wait t tid =
  if t.is_enabled && not (bypassed t tid) then begin
    if t.skip > 0 then t.skip <- t.skip - 1
    else begin
      t.waits_executed <- t.waits_executed + 1;
      let continue = ref true in
      let loops = ref 0 in
      (* Waiters give up quickly when no writer can exist, but wait much
         longer once a privileged thread has been elected: it needs time to
         reach the store and signal. *)
      let hard_cap = t.block_threshold * 50 in
      while !continue && not t.m do
        incr loops;
        Hashtbl.replace t.waiting tid !loops;
        Sched.Scheduler.yield ();
        if !loops > t.block_threshold then begin
          let blocked = Hashtbl.length t.waiting in
          match t.privileged with
          | Some p when p = tid -> continue := false
          | Some _ ->
              (* A privileged thread is running towards the store; keep
                 waiting unless it never delivers (Pitfall 3). *)
              if !loops > hard_cap then begin
                t.is_enabled <- false;
                t.disabled_by_hang <- true;
                continue := false
              end
          | None ->
              if blocked >= t.nthreads then
                (* All threads block: elect a privileged one (Pitfall 2). *)
                t.privileged <- Some (Rng.int t.rng t.nthreads)
              else if !loops > t.block_threshold * 4 then begin
                (* Some threads block and no writer arrives: give up on
                   this sync point (Pitfall 3). *)
                t.is_enabled <- false;
                t.disabled_by_hang <- true;
                continue := false
              end
        end
      done;
      Hashtbl.remove t.waiting tid
    end
  end

(* cond_signal (Figure 6, lines 26-30): set m and stall the writer so the
   blocked readers run their loads before the writer flushes.  The stall
   happens on every signalled store (the paper's usleep(writerWaiting) is
   unconditional); only cond_wait is disabled after the first signal. *)
let cond_signal t =
  t.m <- true;
  t.signalled <- true;
  Sched.Scheduler.yield_n t.writer_wait

let policy t : Env.policy =
  {
    before =
      (fun ctx fp ->
        Sched.Scheduler.yield ();
        if is_sync_load t fp then cond_wait t ctx.Env.tid);
    after = (fun _ctx fp -> if is_sync_store t fp then cond_signal t);
  }

let triggered t = t.signalled
let waits_executed t = t.waits_executed

(* The skip to persist for future campaigns on the same seed: when the
   sync point was disabled because of a hang, future campaigns skip the
   cond_wait executions that blocked unnecessarily. *)
let next_skip t ~previous = if t.disabled_by_hang then previous + t.waits_executed else previous
