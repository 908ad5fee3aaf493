(** The system under exploration: a time-frozen simulator driven
    exclusively by {!Action} steps.

    Built from {!Adgc.Config.mc}, so the scheduler clock never
    advances and the network parks every envelope for explicit
    delivery: the full system state is a pure function of the action
    sequence applied since [create].  The explorer rebuilds a system
    by replaying a trail — there is no undo. *)

type t

val create : ?mutant:string -> ?caps:Scenario.caps -> Scenario.t -> t
(** Fresh system with the scenario's topology built.  [mutant]
    activates one {!Adgc_util.Mc_mutate} variant for the whole life of
    the exploration (the switch is global: systems are used one at a
    time).  [caps] overrides the scenario's default scope. *)

val enabled : t -> Action.t list
(** Every action applicable right now, in a deterministic order:
    the next scripted mutation, then per-process duties (snapshot,
    scan, send-sets, LGC) still under their caps, then deliveries in
    send order, then drops if the drop budget allows. *)

val apply : t -> Action.t -> (string list, string) result
(** Perform one action.  [Ok violations] carries every safety
    violation observed during or right after the step (pre-sweep
    ground-truth hits and {!Adgc_check.Invariant.check} findings,
    rendered as stable strings); [Error reason] means the action was
    not applicable in this state and nothing happened. *)

val fingerprint : t -> string
(** Canonical digest of the reachable system state: heaps, roots,
    stub and scion tables, published detector summaries, parked
    envelopes (send-order independent) and the scope counters.
    Internal identity counters (envelope sequence numbers, RMI request
    ids, detection sequence numbers) and scion tombstones are
    deliberately excluded — states identical up to such renaming
    behave identically, so pruning on this digest is sound for
    safety.  See docs/MODEL_CHECKING.md for the approximation
    argument. *)

val goal_reached : t -> bool
(** The scenario's liveness goal, [false] when it has none. *)

val live_refined : t -> Adgc_algebra.Oid.Set.t
(** Ground truth used for violation checking — exactly
    {!Adgc_rt.Cluster.globally_live}, which already refines in-flight
    RMI replies down to their result references (the target field is
    routing metadata that confers no reference on delivery).  The
    checker keeps no private tracer. *)

val sim : t -> Adgc.Sim.t
