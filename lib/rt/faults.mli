(** Deterministic fault-injection plans for the network.

    A plan is pure data: one link regime (loss model, duplication and
    reordering probabilities) that every link follows, and a schedule of timed partition /
    heal and crash / restart events.  The network draws every fate
    from its own seeded RNG, so a (seed, plan) pair replays the exact
    same fault sequence — a failing oracle run names the seed and is
    immediately reproducible.

    Loss can be correlated: the Gilbert–Elliott two-state channel
    alternates between a good state (rare drops) and a burst state
    (most messages die), with per-link state advanced on every send.
    Reordering is bounded: a reordered message is delayed by at most
    [reorder_skew] extra ticks.  Keep the skew well under
    {!Runtime.config}[.scion_grace] — the grace window is the
    protocol's tolerance for stale stub sets, and the fault layer must
    stay inside the envelope the protocol was designed for (the paper
    assumes loss and finite reordering, not arbitrarily old
    messages). *)

type gilbert_elliott = {
  p_enter : float;  (** good → burst transition probability per send *)
  p_exit : float;  (** burst → good transition probability per send *)
  loss_good : float;
  loss_burst : float;
}

type link = {
  burst_loss : gilbert_elliott option;
      (** [None]: the network config's [drop_prob] decides each loss *)
  duplicate_prob : float;  (** probability a delivered message also arrives a second time *)
  reorder_prob : float;
  reorder_skew : int;  (** extra delay (1..skew ticks) given to a reordered message *)
}

val default_link : link
(** Inherits the network config; no duplication, no reordering. *)

type event =
  | Partition of { links : (int * int) list; at : int; heal : int option }
      (** cut each listed link in both directions at [at]; restore at
          [heal] if given *)
  | Crash of { proc : int; at : int }
  | Restart of { proc : int; at : int }
      (** the process rejoins with its persistent state intact
          (crash-recovery model: heap, stubs and scions survive) *)

type plan = {
  default_link : link;  (** every link's regime *)
  link_faults_until : int option;
      (** after this tick the link model reverts to {!default_link}'s
          inherited behaviour — the fault-quiescence point the
          liveness oracle measures from.  [None]: faults never stop. *)
  events : event list;
}

val none : plan
(** The seed behaviour: config latency/drop only, no events. *)

(** {1 Named profiles (the fault-matrix regimes)} *)

type profile = Loss_burst | Duplicate | Reorder | Partition_heal | Crash_restart

val profile_of_string : string -> profile option

val profile_name : profile -> string

val plan_of_profile : ?start:int -> ?stop:int -> n_procs:int -> profile -> plan
(** Link regimes run from time 0 until [stop] (default 18_000); timed
    events (partition, crash) fire at [start] (default 4_000) and heal
    / restart at [stop].  Every profile quiesces at [stop], so
    liveness is decidable afterwards. *)
