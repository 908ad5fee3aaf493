(** The protocol kernel's duty steps.

    A {e duty} is one voluntary protocol action of one process — take
    a snapshot, scan for candidates, run the local collector, send
    stub sets.  Together with
    message delivery ({!Adgc_rt.Dispatch}) these transitions are the
    complete per-process protocol kernel: everything else is
    scheduling.

    The timed drivers fire duties on a clock and the bounded model
    checker ({!Adgc_mc.System}) fires them as explored actions.  The
    timed drivers share one duty table, {!schedule}: {!Sim.start}
    installs it over every rank, a socket node ([Adgc_net.Node]) over
    its own rank, and a cluster without a detector runs its first two
    rows ({!gc_rows}).  The timed [sets] row follows
    {!Adgc_rt.Reflist.send_new_sets} with
    {!Adgc_rt.Reflist.probe_idle_scions} and
    {!Adgc_rt.Reflist.reap_dead_holders}.  The checker's [Send_sets]
    runs neither, so scion probes and dead-holder reaping are not part
    of the explored transition system. *)

type ctx = {
  rt : Adgc_rt.Runtime.t;
  store : Adgc_snapshot.Snapshot_store.t;
  detectors : Adgc_dcda.Detector.t array;
      (** the DCDA instance of each process, owned by the simulator;
          empty when it runs no detector, and then [Scan] does
          nothing *)
}
(** Everything a duty needs; build one with {!Sim.kernel_ctx}. *)

type duty =
  | Snapshot of int
  | Scan of int
  | Lgc of int
  | Send_sets of int
  | Maintain_candidates of int
      (** does nothing, and {!schedule} has no row for it: kept only
          for the benchmark's hand copy of the duty lanes
          ([bench/e2e/rep.ml]), which ROADMAP items 5 and 7 delete *)
(** The process index each duty acts on. *)

val run_duty : ctx -> duty -> unit
(** Execute one duty synchronously (outbound messages go through the
    normal network path).  No aliveness guard: callers decide whether
    a dead process's timer simply skips (the simulator) or the duty is
    not offered at all (the checker). *)

(** {1 The duty table} *)

type row = {
  name : string;  (** ["lgc"], ["sets"], ["snapshot"] or ["scan"] *)
  period : int;
  run : int -> unit;  (** perform the duty on process [i] *)
}
(** One timed duty.  Process [i] of [n] first fires at
    [1 + i * period / max 1 n], a stagger that keeps processes from
    collecting in lockstep, and every [period] ticks after. *)

val gc_rows : Adgc_rt.Runtime.t -> row list
(** The acyclic collector's rows, [lgc] then [sets], with periods from
    the runtime config. *)

val schedule : ctx -> policy:Adgc_dcda.Policy.t -> row list
(** The duty table: {!gc_rows} followed by [snapshot] and [scan]
    with periods from the policy.
    Rows are installed in this order, which fixes how same-tick
    firings interleave. *)

val start : ?rank:int -> Adgc_rt.Cluster.t -> row list -> unit
(** Install each row as one scheduler lane over every rank, or over
    [rank] alone (a socket node).  A firing on a dead process is
    skipped.  The lanes are registered with the cluster, so
    {!Adgc_rt.Cluster.stop_gc} and {!Adgc_rt.Cluster.teardown} cancel
    them. *)
