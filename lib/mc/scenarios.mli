(** The scenario registry, plus the scripted trails the mutation
    gauntlet replays.

    Each scenario was designed (and is regression-checked) so that its
    {e whole} explored scope is violation-free on the unmutated build:
    every interleaving of deliveries, drops, snapshots, scans, local
    collections and scripted mutations within the caps keeps the
    paper's safety claims intact.  The scripted trails below are
    specific schedules through those scopes with known verdicts. *)

val all : Scenario.t list

val find : string -> Scenario.t option

(** {1 Scripted trails} *)

val lost_cdm_trail : Action.t list
(** [two_proc_cycle]: unlink, snapshot both and scan P0, but drop the
    first CDM; a second scan retries the detection, the CDM chain and
    the deletion broadcast are delivered and both processes collect —
    still reclaims (the paper's resilience-to-loss claim).  Replay
    under {!lost_cdm_caps}. *)

val lost_cdm_caps : Scenario.caps
(** Scope for {!lost_cdm_trail}: one scan wider than the scenario's
    default exhaustive scope. *)

val stale_witness_trail : Action.t list
(** [two_proc_cycle]: a pre-unlink snapshot of P0, then unlink,
    snapshot both, scan P0, deliver the CDM chain and the deletion
    broadcast, collect both.
    Unmutated, the later snapshot supersedes it and the cycle is
    reclaimed; under [stale_summaries] the detector keeps the first
    (locally-reachable) summary and never initiates.  Replay under
    {!stale_witness_caps}. *)

val stale_witness_caps : Scenario.caps
(** Scope for {!stale_witness_trail}: one snapshot wider than the
    scenario's default exhaustive scope. *)
