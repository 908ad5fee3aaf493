(** Top-level configuration of a simulation. *)

type detector_kind =
  | Dcda  (** the paper's cycle detector *)
  | No_detector
      (** acyclic DGC only (distributed cycles leak); the comparison
          collectors attach to such a sim from outside *)

val groups_of_string : string -> int option
(** Group size for the hierarchical overlay: ["off"]/["flat"]/["none"]
    (and the empty string) mean 0 = flat clique, ["on"] means 8, a
    non-negative integer means that size (1 normalises to 0 — a
    clique of singleton groups is the flat clique). *)

val groups_to_string : int -> string

val groups_of_env : unit -> int
(** Group size selected by the [ADGC_GROUPS] environment variable (0 =
    flat when unset or unrecognised).  {!default} folds this into
    [runtime.group_size] (with [group_relay] on for sizes [> 1]), so
    the CI groups job steers whole test binaries without touching
    code. *)

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
    ({!Adgc_mc}): manual (explored) network delivery, no idle
    thresholds, cooldowns, backoff or early-IC pruning, sorted scan
    order, broadcast deletion, DGC control payloads sent synchronously
    ([dgc_window = 0]: no batch or relay queue outlives its
    transition).  With this config the whole system state is
    a pure function of the choice sequence — the scheduler clock never
    advances and the RNG is never drawn from. *)

val groups : t -> int
(** The configured group size ([runtime.group_size]; 0 = flat). *)

val with_groups : t -> int -> t
(** Set the group overlay size (and enable relaying for sizes [> 1]);
    [<= 1] returns to the flat clique. *)
