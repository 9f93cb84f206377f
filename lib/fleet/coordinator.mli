(** The fleet coordinator: a single-threaded select loop that owns the
    durable {!Store} and speaks {!Wire} over a Unix-domain socket.

    Workers attach with [Hello] (getting a persistent worker index),
    draw [Lease]s (campaign-budget reservations plus favored corpus
    seeds), ship [Delta]s (merged into the aggregate and persisted
    before the ack) and [Bug] sightings (deduplicated fleet-wide), and
    detach with [Bye] — or by dying, in which case only their
    outstanding leased budget returns to the pool.

    Durability: every acknowledged mutation is on disk first, so a
    SIGKILLed coordinator restarted on the same store directory resumes
    with the budget ledger, aggregate coverage, bug set and corpus
    intact.  Outstanding (unacknowledged) leases are forgotten on
    restart; a worker still fuzzing one will have its delta merged
    anyway, so a crash can at most overshoot the campaign budget by the
    leases in flight, never lose acknowledged work. *)

type config = {
  socket_path : string;
  store_dir : string;
  target : string;  (** registry name; [Hello]s for other targets are refused *)
  budget : int;  (** total campaign budget (spans restarts) *)
  campaigns_per_lease : int;
      (** grant cap per [Lease_req]: each client's grant is sized to one
          second of its observed throughput (EWMA of campaigns/sec over
          its delta acks), clamped to [5, campaigns_per_lease].  A
          client with no measured rate yet gets the full cap. *)
  seeds_per_lease : int;  (** corpus seeds handed out per lease *)
  log : string -> unit;
}

val default_config : config
(** [socket_path]/[store_dir]/[target] empty; budget 300; 30-campaign
    cap; 4-seed leases; silent log. *)

val lease_size : rate:float -> horizon:float -> min_lease:int -> max_lease:int -> int
(** The lease-sizing policy, exposed pure for tests: [max_lease] when
    [rate <= 0] (unmeasured), else [rate × horizon] clamped to
    [min_lease, max_lease] (both capped by [max_lease]). *)

type stats = {
  st_campaigns : int;  (** budget used, including pre-restart campaigns *)
  st_bugs : int;  (** unique (kind, site) sightings fleet-wide *)
  st_clients : int;  (** workers served by this process *)
}

val serve : ?on_ready:(unit -> unit) -> config -> (stats, string) result
(** Run until the budget is fully used {e and} the last worker has
    detached.  [on_ready] fires once the socket is listening (tests and
    scripts use it to spawn workers without racing the bind). *)
