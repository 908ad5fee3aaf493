(** The scenario registry, plus the scripted trails the conformance
    tests and the mutation gauntlet replay.

    Each scenario was designed (and is regression-checked) so that its
    {e whole} explored scope is violation-free on the unmutated build:
    every interleaving of deliveries, drops, snapshots, scans, local
    collections and scripted mutations within the caps keeps the
    paper's safety claims intact.  The scripted trails below are
    specific schedules through those scopes with known verdicts. *)

val two_proc_cycle : Scenario.t
(** Two processes, root [R -> A] at P0, remote cycle [A <-> B] with B
    at P1; one scripted mutation unlinks [R -> A].  The paper's
    canonical distributed garbage cycle. *)

val ic_race : Scenario.t
(** Two processes, root [R -> D] at P0, remote cycle [D <-> F]; the
    script first invokes [F] through P0's stub (bumping the stub-side
    counter while the request is parked in flight), then unlinks the
    root.  Exercises safety rule 3: any detection racing the
    invocation must abort on the counter mismatch. *)

val external_holder : Scenario.t
(** Three processes: remote cycle [A <-> B] between P1 and P2, and a
    rooted external reference to [A] from P0.  No mutation — the
    "cycle" is reachable and must never be reclaimed.  The
    [drop_source_scion] mutant loses exactly the external dependency
    here. *)

val export_handshake : Scenario.t
(** Three processes: P1 holds rooted stubs to [X] (owned by P0) and
    [Y] (owned by P2).  The script RMI-calls [Y] passing [X] — a
    third-party export whose notice/ack handshake must keep [X]
    protected — then drops P1's reference to [X].  Detection duties
    are capped to zero: the scope checks the reference-listing
    handshake alone. *)

val all : Scenario.t list

val find : string -> Scenario.t option

(** {1 Scripted trails} *)

val reclaim_trail : Action.t list
(** [two_proc_cycle]: unlink, snapshot both, scan P0, deliver the CDM
    chain and the deletion broadcast, collect both — the cycle is
    reclaimed (goal reached). *)

val lost_cdm_trail : Action.t list
(** [two_proc_cycle]: same, except the first CDM is dropped and a
    second scan retries the detection — still reclaims (the paper's
    resilience-to-loss claim).  Replay under {!lost_cdm_caps}. *)

val lost_cdm_caps : Scenario.caps
(** Scope for {!lost_cdm_trail}: one scan wider than the scenario's
    default exhaustive scope. *)

val stale_witness_trail : Action.t list
(** [reclaim_trail] prefixed with a pre-unlink snapshot of P0.
    Unmutated, the later snapshot supersedes it and the cycle is
    reclaimed; under [stale_summaries] the detector keeps the first
    (locally-reachable) summary and never initiates.  Replay under
    {!stale_witness_caps}. *)

val stale_witness_caps : Scenario.caps
(** Scope for {!stale_witness_trail}: one snapshot wider than the
    scenario's default exhaustive scope. *)

val ic_race_reclaim_trail : Action.t list
(** [ic_race]: run the invocation to completion (request and reply
    delivered), then detect and reclaim — the exact verdict is
    reclamation, since a settled invocation leaves the counters
    consistent. *)

val ic_race_abort_trail : Action.t list
(** [ic_race]: detect while the invocation request is still in flight —
    the exact verdict is {e no} reclamation: the CDM aborts on the
    counter mismatch at delivery (safety rule 3) and both cycle members
    survive their local collections. *)
