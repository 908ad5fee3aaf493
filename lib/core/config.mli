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

val default : ?seed:int -> ?n_procs:int -> unit -> t
(** DCDA with the default policy, 4 processes, seed 42. *)

val quick : ?seed:int -> ?n_procs:int -> unit -> t
(** Aggressive periods everywhere — detections conclude within a few
    thousand ticks; what most tests use. *)

val mc : ?seed:int -> ?n_procs:int -> unit -> t
(** Time-frozen configuration for the bounded model checker
    ({!Adgc_mc}).  It runs the shipped detector — scans resume past
    the rotating cursor, and the backoff doubles a cooldown of 0, so it
    is inert — and differs from {!default} only in:
    - periods and thresholds: manual (explored) network delivery,
      snapshot and scan periods of 1, no idle threshold, cooldown or
      scion grace, no failure detection;
    - [dgc_window = 0]: DGC control payloads are sent synchronously,
      so no batch queue outlives its transition;
    - [Broadcast] deletion.

    With this config the whole system state is a pure function of the
    choice sequence: the scheduler clock never advances. *)
