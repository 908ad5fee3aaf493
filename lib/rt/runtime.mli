(** Shared context threading the simulator's pieces together.

    This record owns only the
    {e shared, process-agnostic} machinery: the scheduler, the
    network, stats/trace/telemetry sinks and the immutable run
    configuration.  All {e protocol} state (request/notice counters,
    pending calls and export handshakes, DGC batch queues, RMI
    behaviors) lives on the individual {!Process.t}, so handling a
    delivery or running a duty is a per-process transition plus
    outbound messages.  {!Reflist}, {!Rmi}, {!Lgc} and the detectors
    all operate through this record; {!Cluster} builds it and
    installs {!Dispatch.deliver} as the network's delivery
    function. *)

open Adgc_algebra

type config = {
  dgc_enabled : bool;
      (** master switch for the reference-listing bookkeeping on the
          RMI path (stub/scion creation, pins, counters).  Disabling
          it models the original platform without any DGC — the
          baseline of the paper's Table 1.  Marshalling and message
          traffic are unaffected, so the comparison isolates the DGC
          overhead. *)
  rmi_marshal : bool;
      (** marshal RMI argument descriptors through the compact codec
          on the caller (the real work Table 1's base cost measures) *)
  lgc_period : int;
  new_set_period : int;
  scion_grace : int;
      (** how long an unconfirmed scion is protected from stub sets
          that do not list it; must exceed the maximum message
          lifetime plus one advertisement period (see
          {!Scion_table.apply_new_set}) *)
  holder_silence_limit : int option;
      (** failure detection: [Some limit] reclaims scions whose holder
          has been silent (no stub set, despite probes) for [limit]
          ticks — lease-like semantics for crash-stop failures.
          UNSAFE under false suspicion: a partition outlasting the
          limit reclaims objects a live-but-unreachable holder still
          references; the tests demonstrate both directions of the
          trade-off.  [None] (the default) never reaps. *)
  dgc_window : int;
      (** how long a DGC control payload ({!send_dgc}) may wait in its
          sender's queue before the queue is flushed as one
          {!Msg.Batch} per destination.  Bounds the latency the
          coalescing adds to CDM propagation and stub-set timeliness;
          keep it well under [new_set_period] and the detector's scan
          period.  [0] puts every payload on the wire synchronously
          inside {!send_dgc}, with no scheduler involvement, which the
          model checker's frozen clock requires. *)
}
(** Immutable: fix the settings before building the cluster
    (functional record update on {!default_config}).  Sharing one
    config value between clusters is harmless — nothing can mutate it
    under a reader's feet.  The export-notice retry delay (100 ticks)
    and the RMI pin timeout (5000 ticks) are constants of {!Reflist}
    and {!Rmi}. *)

val default_config : unit -> config
(** DGC on, no RMI marshalling, LGC every 1000 ticks, stub sets every
    1500, scion grace 10000, no failure detection, a 10-tick DGC
    window: what tests and benches that build a bare cluster run.
    The shipped preset, [Adgc.Config.quick], shortens the GC periods
    and the grace. *)

type t = {
  sched : Scheduler.t;
  net : Network.t;
  procs : Process.t array;
  rng : Adgc_util.Rng.t;
  stats : Adgc_util.Stats.t;
  trace : Adgc_util.Trace.t;
  obs : Adgc_obs.Span.t;
      (** structured span ring; disabled (and then zero-cost) unless
          the cluster was created with [~telemetry:true] *)
  lineage : Adgc_obs.Lineage.t;
      (** per-detection hop provenance; same enablement as [obs] *)
  mutable run_span : int;  (** root span every other span nests under *)
  config : config;
  mutable on_reclaim : (Proc_id.t -> Oid.t -> unit) option;
      (** called for every object swept by any LGC (test hook) *)
  mutable on_pre_sweep : (Proc_id.t -> Oid.t list -> unit) option;
      (** called with the full doomed list before an LGC removes
          anything, while every heap is still intact — the safety
          checker computes ground truth here *)
}

type behavior = t -> Process.t -> target:Oid.t -> args:Oid.t list -> Oid.t list
(** The user-facing RMI body: receives the runtime context and the
    callee process plus the imported argument references; returns the
    references to ship back in the reply.  {!Rmi.call} closes it over
    the context and stores the result on the caller as a
    {!Process.behavior}. *)

val create :
  sched:Scheduler.t ->
  net:Network.t ->
  procs:Process.t array ->
  rng:Adgc_util.Rng.t ->
  stats:Adgc_util.Stats.t ->
  trace:Adgc_util.Trace.t ->
  obs:Adgc_obs.Span.t ->
  lineage:Adgc_obs.Lineage.t ->
  config:config ->
  t

val proc : t -> Proc_id.t -> Process.t

val now : t -> int

val log : t -> topic:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append to the trace buffer, stamped with simulated time. *)

val send : t -> src:Proc_id.t -> dst:Proc_id.t -> Msg.payload -> unit

val send_dgc : t -> src:Proc_id.t -> dst:Proc_id.t -> Msg.payload -> unit
(** Like {!send}, for delay-tolerant DGC control traffic (stub sets,
    scion probes, CDMs, CDM deletions).  The payload joins the
    sender's per-destination queue, and when the queue's
    {!field:config.dgc_window} closes everything in it travels inside
    one {!Msg.Batch} ([net.msg.batched] / [net.msg.batch_flushes]
    count the coalescing); a queue holding a single payload sends it
    as a plain message.  Crash-stop filtering applies at flush time.

    @raise Invalid_argument if the payload carries object references
    ({!Msg.payload_refs}): batches are reference-free by
    construction. *)
