(** A complete simulated distributed system.

    Builds the processes, the network and the shared runtime, and
    installs the message dispatch.  The periodic duties come from
    [Adgc.Kernel]'s duty table; the cluster only owns their lanes. *)

open Adgc_algebra

type t

val create :
  ?seed:int ->
  ?config:Runtime.config ->
  ?net_config:Network.config ->
  ?faults:Faults.plan ->
  ?telemetry:bool ->
  n:int ->
  unit ->
  t
(** [n] processes with ids [P0 .. P(n-1)]. Default seed 42.  The fault
    plan's partition events are armed in the network and its crash /
    restart events on the scheduler.  [telemetry] (default false)
    enables the structured span ring and detection lineage; when off,
    every instrumentation hook is a single branch. *)

val rt : t -> Runtime.t

val sched : t -> Scheduler.t

val net : t -> Network.t

val stats : t -> Adgc_util.Stats.t

val trace : t -> Adgc_util.Trace.t
(** The event ring {!Runtime.log} writes to.  Disabled at creation, so
    a log line costs one branch and nothing is kept; a component that
    reads the trace enables it ({!Adgc_check.Oracle.install}, and the
    CLI's [run --trace] and [trace]). *)

val obs : t -> Adgc_obs.Span.t

val lineage : t -> Adgc_obs.Lineage.t

val proc : t -> int -> Process.t

val n_procs : t -> int

val now : t -> int

(** {1 Time control} *)

val run_for : t -> int -> unit

val run_until : t -> time:int -> unit

val drain : ?limit:int -> t -> int

(** {1 Periodic GC duties} *)

val add_lanes : t -> Scheduler.lane list -> unit
(** Register periodic duty lanes (built by [Adgc.Kernel.start] from
    the duty table) so {!stop_gc} and {!teardown} cancel them. *)

val stop_gc : t -> unit
(** Cancel every registered duty lane. *)

(** {1 Teardown} *)

val at_teardown : t -> (unit -> unit) -> unit
(** Register a hook to run once at {!teardown} (newest first).  The
    oracle and the metrics sampler register their detach here so
    windowed checks cannot outlive the run. *)

val teardown : t -> unit
(** End the run: stop the periodic GC duties, run (and discard) every
    teardown hook, and close the root [run] span.  Idempotent; the
    cluster's state remains readable afterwards. *)

(** {1 Failures} *)

val crash : t -> int -> unit
(** Crash-stop the process: it stops sending, receiving and performing
    duties; its heap becomes unreachable wreckage excluded from ground
    truth.  Scions it held at other owners are reclaimed only when
    [holder_silence_limit] is set (see {!Runtime.config}). *)

val restart : t -> int -> unit
(** Revive a crashed process with its state intact (crash-recovery
    with a persistent store: heap, stubs, scions and sequence numbers
    all survive).  Holder-silence clocks are refreshed so failure
    detection does not instantly suspect every holder; installed
    periodic duties resume on their own.  No-op on a live process. *)

(** {1 Whole-system queries (omniscient; used by tests and metrics)} *)

val total_objects : t -> int

val ref_carrying_kinds : string list
(** The message kinds whose payloads can carry importable references.
    Their in-flight population is a reachability input, so the
    [net.msg.{sent,delivered,dropped}.<kind>] counters for exactly
    these kinds belong in every liveness staleness signature
    ({!live_among}'s cache, {!Adgc.Sim.run_until_clean}). *)

val traffic_signature : t -> int
(** The sum of the crash and restart counts and of the
    [net.msg.{sent,delivered,dropped}.<kind>] counters of
    {!ref_carrying_kinds}: the part of a liveness staleness signature
    that is not in the heaps.  It grows whenever a process crashes or
    restarts or a reference-carrying message enters or leaves the
    network. *)

val live_among : t -> Oid.t list -> Oid.t list
(** Subset of the given oids that are globally live, judged against
    ground truth: objects reachable from the union of all local roots,
    crossing remote references, plus everything reachable from
    references sitting inside in-flight messages (the network's
    incrementally maintained live-ref multiset, {!Msg.live_refs}).  No
    protocol state is consulted.  The set is never materialized:
    membership is judged against cached per-process mark bytes indexed
    by dense id.  The cache revalidates against a monotonic staleness signature that
    folds every reachability input {e except removals}
    ({!Heap.live_mutations}, crash/restart counts, the in-flight
    counters of {!ref_carrying_kinds}) plus each heap's
    {!Heap.dense_generation} — a safe sweep deletes only garbage and
    reassigns no dense id, so consecutive staggered sweeps all
    validate against one global trace instead of one trace each.  An
    unsafe sweep is exactly what the pre-sweep hooks call this to
    catch, before the sweep happens, so the first violation is always
    judged against exact ground truth. *)

val live_predicate : t -> Oid.t -> bool
(** [live_predicate t] returns an O(1) globally-live membership test
    backed by the same cached marks as {!live_among}.  The returned predicate is only valid until the
    next heap mutation, delivery or crash. *)

val garbage : t -> Oid.Set.t
(** Every object on a live process that is not globally live (see
    {!live_among}). *)

val garbage_count : t -> int
(** [Oid.Set.cardinal (garbage t)], computed without materializing
    either set: the global trace only counts live objects per heap and
    garbage is each alive heap's population minus that.  The
    run-until-clean poll's fast path — at a thousand processes and
    millions of objects the set-building variants are unaffordable per
    poll. *)
