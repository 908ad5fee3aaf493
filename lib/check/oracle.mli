(** Whole-system safety / liveness oracle.

    Installed over a {!Adgc_rt.Cluster.t}, the oracle watches two
    channels:

    - the pre-sweep hook ({!Invariant.watch_sweeps}), where ground
      truth is judged with every heap still intact and any
      globally-live object about to be reclaimed is flagged (the
      temporal half of safety);
    - a recurring tick-window sweep of the instantaneous
      {!Invariant.check} (dangling references, dangling scions, invocation
      counter conservation), scheduled as a
      {!Adgc_rt.Scheduler.daemon} so it never keeps a drain from
      ending.

    The first violation captures a full report — the violated
    invariant, the {!Adgc_workload.Inspect} cluster dump and the tail
    of the event trace — so a failing (seed, fault plan) pair is
    immediately replayable and diagnosable. *)

type t

type event = { time : int; violation : Invariant.violation }

val install : ?window:int -> Adgc_rt.Cluster.t -> t
(** Start watching.  [window] (default 500 ticks) is the period of the
    instantaneous-invariant sweep.  The pre-sweep hook chains: a
    previously installed hook keeps running.  The oracle registers
    itself with {!Adgc_rt.Cluster.at_teardown}, so tearing the cluster
    down detaches it automatically. *)

val stop : t -> unit
(** Cancel the recurring sweep and run one final check.  Idempotent:
    the final check runs exactly once however many times [stop] fires
    (explicitly, or via cluster teardown). *)

val events : t -> event list
(** Every recorded violation, oldest first.  A persistent broken
    invariant is re-reported every window. *)

val first_report : t -> string option
(** The full diagnostic captured at the first violation. *)
