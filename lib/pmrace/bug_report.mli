(** Detailed bug reports (§4.1 step 6): the sites involved in each
    surviving inconsistency, its validation verdict, and the exact inputs
    (operation sequence, scheduler seed, interleaving policy) that replay
    the buggy execution deterministically. *)

val pp_finding : Format.formatter -> Fuzzer.session -> Report.finding -> unit
(** One finding's report: its subject, verdict, first sighting and the
    inputs that replay that campaign. *)

val render_bugs : Format.formatter -> Fuzzer.session -> unit
(** Every inconsistency (by first sighting) and sync event that survived
    post-failure validation, as numbered reports with reproduction
    instructions. *)

val render_lint : Format.formatter -> Analysis.Lint.finding list -> unit
(** The offline analyzer's persistency-lint findings, as numbered reports
    (used by [pmrace analyze]). *)
