(** Campaign replay from recorded provenance ([pmrace replay]).

    An {!Artifact.t} records, for every campaign, the exact seed, the
    scheduler seed, and the interleaving-policy spec.  Replay rebuilds
    the campaign input from the artifact's config and the bug's first
    sighting, re-executes that single campaign, validates only its
    findings of the bug's (kind, site) — the candidates that can form
    the bug's group — and checks that the group reappears. *)

type outcome = {
  r_bug : Artifact.bug;  (** the artifact bug group being replayed *)
  r_campaign : int;  (** campaign index that was re-executed *)
  r_reproduced : bool;  (** the same (kind, site) group reappeared *)
  r_group : Report.bug_group option;
      (** the bug's group as the replayed campaign rebuilt it; [None] when
          not reproduced *)
  r_image_index : int option;
      (** the smallest crash-image index among the bug verdicts of the
          bug's (kind, site) candidates on this run (0 = base image);
          [None] when not reproduced *)
}

val rerun :
  target:Target.t ->
  artifact:Artifact.t ->
  capture:Runtime.Checkers.capture ->
  Artifact.prov_entry ->
  Campaign.result
(** [rerun ~target ~artifact ~capture] builds an engine configured like
    the recorded session's workers, whose checkers capture a crash
    surface for the findings [capture] accepts; applied to a provenance
    entry it re-executes that campaign exactly as the fuzzer ran it
    (same seed, scheduler seed, policy spec and execution parameters,
    POR included).  Which findings get a surface never changes the
    execution.  Partially apply it to re-execute many campaigns on one
    engine; each result's environment is valid until the next call. *)

val group_capture : Artifact.bug -> Runtime.Checkers.capture
(** The findings a replay of the bug group validates: inconsistencies of
    the group's kind and write site, or sync events of its variable.
    Sites are compared by name; no site is registered. *)

val replay_bug : target:Target.t -> artifact:Artifact.t -> bug:int -> (outcome, string) result
(** Replay artifact bug group [bug] (an index into the artifact's [bugs]
    list).  Validation uses the recorded config's crash-image budget,
    widened if needed to cover the bug's recorded [b_image_index] so the
    exact enumerated image is rebuilt.  Errors when the target does not
    match the artifact, the index is out of range, or the bug carries no
    replayable provenance. *)
