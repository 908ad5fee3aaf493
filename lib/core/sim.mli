(** A fully assembled system: cluster + snapshots + cycle detection.

    [create] builds everything; [start] installs the periodic duties
    (LGC, stub sets, snapshots, candidate scans — all phase-staggered
    per process); then drive simulated time with [run_for] /
    [run_until_quiescent] and inspect the results. *)

type t

val create : config:Config.t -> unit -> t

val config : t -> Config.t

val cluster : t -> Adgc_rt.Cluster.t

val rt : t -> Adgc_rt.Runtime.t

val net : t -> Adgc_rt.Network.t
(** The transport — the model checker drives it directly in
    {!Adgc_rt.Network.Manual} delivery mode. *)

val store : t -> Adgc_snapshot.Snapshot_store.t

val kernel_ctx : t -> Kernel.ctx
(** The duty-execution context for this system: the simulator's own
    periodic timers run through it, and so does the model checker —
    one definition of every protocol duty (see {!Kernel}). *)

val detector : t -> int -> Adgc_dcda.Detector.t
(** @raise Invalid_argument unless the config selected [Dcda]. *)

val stats : t -> Adgc_util.Stats.t

val trace : t -> Adgc_util.Trace.t

val obs : t -> Adgc_obs.Span.t

(** {1 Driving} *)

val start : t -> unit
(** Install the duty table ({!Kernel.schedule}) over every process.
    A no-op while this sim's duty table is installed (from [start] to
    {!stop}); lanes another component registered, before or after,
    neither suppress nor count as it. *)

val stop : t -> unit
(** Cancel every duty lane on the cluster, this sim's and any other
    component's; a later {!start} installs the duty table again. *)

val teardown : t -> unit
(** [stop] plus {!Adgc_rt.Cluster.teardown}: detaches every
    registered checker/sampler and closes the root telemetry span.
    Idempotent; results remain readable. *)

val now : t -> int

val run_for : t -> int -> unit

val snapshot_all : t -> unit
(** Take a snapshot of every process right now, in process order
    (also happens periodically once started). *)

val scan_all : t -> int
(** Run one candidate scan on every detector, in process order;
    returns detections started. *)

(** {1 Results} *)

val reports : t -> Adgc_dcda.Report.t list
(** All proven cycles across processes, in conclusion order. *)

val garbage_count : t -> int
(** Ground truth: objects currently allocated but globally
    unreachable. *)

val run_until_clean :
  ?step:int -> ?max_time:int -> t -> bool
(** Keep running until ground-truth garbage reaches zero or the time
    budget runs out; [true] on success.  Requires [start]ed timers.

    The ground-truth trace is recomputed only when a staleness
    signature (heap mutation counters, crash/restart counts and the
    message counters of every reference-carrying kind) shows the
    answer could have changed; quiet polls are counted under the
    ["sim.clean_checks.skipped"] stat, recomputations under
    ["sim.clean_checks"]. *)
