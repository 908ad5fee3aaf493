(** The message transport.

    Point-to-point, unordered, unreliable: each message is delivered
    after a drawn latency, dropped by the link's loss model, or
    blackholed while its link is partitioned.  All protocols above are
    required to tolerate this; the tests inject loss and partitions
    aggressively.

    Beyond the config's uniform latency / Bernoulli drop baseline, a
    {!Faults.plan} turns on one adversarial regime that every link
    follows: correlated loss bursts (Gilbert–Elliott, each link in its
    own burst state), message duplication (each copy gets its own
    latency, so a duplicate can overtake the original), bounded
    reordering, and scheduled partition / heal windows.  Every
    fate is drawn from the network's seeded RNG — same seed, same
    plan, same fault sequence.

    The network keeps an explicit registry of in-flight messages so
    the omniscient ground-truth checker can treat references inside
    undelivered messages as reachable. *)

open Adgc_algebra

type delivery_mode =
  | Timed  (** latency/loss drawn from the seeded RNG, delivery scheduled *)
  | Manual
      (** envelopes park in the in-flight set; an external scheduler
          (the model checker) delivers or drops each one explicitly.
          No RNG is consumed on the send path. *)

type config = {
  mutable latency_min : int;
  mutable latency_max : int;  (** inclusive; must be [>= latency_min] *)
  mutable drop_prob : float;
  mutable account_bytes : bool;
      (** when set, every sent message's compact-codec size is counted
          and recorded (slower; benches that report bytes enable it) *)
  mutable delivery : delivery_mode;
}

val default_config : unit -> config
(** latency 5..25 ticks, no drops, no byte accounting, timed delivery. *)

type t

val create :
  ?faults:Faults.plan ->
  sched:Scheduler.t ->
  rng:Adgc_util.Rng.t ->
  stats:Adgc_util.Stats.t ->
  config:config ->
  unit ->
  t
(** Partition / heal events of the plan are scheduled immediately;
    crash / restart events are the cluster's job. *)

val config : t -> config

val set_deliver : t -> (Msg.t -> unit) -> unit
(** Install the cluster's dispatch function. Must be called before the
    first [send]. *)

val set_transport : t -> (Msg.t -> bool) -> unit
(** Install an external transport intercept, consulted on every
    {!send} before the simulated link machinery.  Returning [true]
    claims the envelope: it leaves the simulated network entirely (no
    latency draw, no loss model, no local delivery) and becomes the
    transport's responsibility — the socket driver claims every
    envelope addressed to a process hosted by another OS process and
    ships it as a {!Adgc_serial.Net_codec} frame.  Returning [false]
    leaves the envelope on the normal simulated path (how
    self-addressed DGC traffic still gets its local delivery).
    Claimed envelopes are byte-accounted like delivered ones when
    [account_bytes] is set. *)

val send : t -> Msg.t -> unit
(** Draw latency/drop/duplication fate and schedule delivery.
    Self-addressed messages are delivered with latency too (a
    process's DGC talks to itself through the same paths). *)

val block_link : t -> Proc_id.t -> Proc_id.t -> unit
(** Drop everything subsequently sent from the first to the second
    process (one direction). *)

val unblock_link : t -> Proc_id.t -> Proc_id.t -> unit

val in_flight : t -> Msg.t list
(** Sorted by injection id (send order).  Kept for the suites that
    inspect the messages on the wire: [test_failures] (what a crashed
    sender left in flight, per-link seqs) and [test_detector] (a CDM
    snatched before it lands).  It materialises and sorts the whole
    registry (O(n log n) per call), so nothing on a runtime, oracle or
    stats hot path may use it — those go through the O(1) views below
    ({!in_flight_count}, {!iter_in_flight_live_refs}), which are
    maintained incrementally as envelopes enter and leave the wire. *)

val in_flight_count : t -> int
(** O(1). *)

val iter_in_flight_live_refs : t -> (Oid.t -> unit) -> unit
(** Iterate the distinct object references kept reachable by in-flight
    envelopes ({!Msg.live_refs} of every registered payload) — the
    oracle's message-seed set, without scanning the registry.  Each
    distinct reference is presented once regardless of how many
    envelopes carry it. *)

(** {2 Manual delivery} — only meaningful in {!Manual} mode. *)

val pending : t -> (int * Msg.t) list
(** Parked envelopes with their injection ids, sorted by id (send
    order).  The id is the handle for [deliver_one] / [drop_one]. *)

val deliver_one : t -> int -> unit
(** Dispatch that parked envelope now.  Raises [Invalid_argument] on
    an unknown id. *)

val drop_one : t -> int -> unit
(** Discard that parked envelope (counted as a network drop). *)
