(** Top-level configuration of a simulation. *)

type detector_kind =
  | Dcda  (** the paper's cycle detector *)
  | No_detector
      (** acyclic DGC only (distributed cycles leak); the comparison
          collectors attach to such a sim from outside *)

type t = {
  seed : int;
  n_procs : int;
  runtime : Adgc_rt.Runtime.config;
  net : Adgc_rt.Network.config;
  faults : Adgc_rt.Faults.plan;
      (** fault-injection plan handed to the cluster/network (default:
          {!Adgc_rt.Faults.none}) *)
  policy : Adgc_dcda.Policy.t;
  detector : detector_kind;
  telemetry : bool;
      (** enable structured spans and detection lineage (see
          {!Adgc_obs}); default off — every hook is then one branch *)
}

val quick : ?seed:int -> ?n_procs:int -> unit -> t
(** The shipped configuration, which every driver runs: DCDA under
    {!Adgc_dcda.Policy.default}, the default runtime with short GC
    periods (LGC 300, stub sets 350, scion grace 3000) — detections
    conclude within a few thousand ticks.  4 processes, seed 42 by
    default. *)

val mc : ?seed:int -> ?n_procs:int -> unit -> t
(** Time-frozen configuration for the bounded model checker
    ({!Adgc_mc}).  It runs the shipped detector — scans resume past
    the rotating cursor, up to 16 per scan, and the backoff doubles a
    cooldown of 0, so it is inert — and differs from {!quick} only in:
    - periods and thresholds: manual (explored) network delivery,
      snapshot and scan periods of 1, no idle threshold, cooldown or
      scion grace;
    - [dgc_window = 0]: DGC control payloads are sent synchronously,
      so no batch queue outlives its transition;
    - [Broadcast] deletion.

    With this config the whole system state is a pure function of the
    choice sequence: the scheduler clock never advances. *)
