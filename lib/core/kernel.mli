(** The protocol kernel's duty steps.

    A {e duty} is one voluntary protocol action of one process — take
    a snapshot, scan for candidates, run the local collector, send
    stub sets, audit the incremental candidate labels.  Together with
    message delivery ({!Adgc_rt.Dispatch}) these transitions are the
    complete per-process protocol kernel: everything else is
    scheduling.

    The timed drivers fire duties on a clock and the bounded model
    checker ({!Adgc_mc.System}) fires them as explored actions.  The
    two do not run exactly the same steps:

    - [Adgc_net.Node.install_duties] runs all five duties through
      {!run_duty}.  {!Sim.start} runs [Snapshot], [Scan] and
      [Maintain_candidates] through it, while
      {!Adgc_rt.Cluster.start_gc} calls {!Adgc_rt.Lgc.run} and
      {!Adgc_rt.Reflist.send_new_sets} directly; those are the bodies
      of [Lgc] and [Send_sets].
    - The timed stub-set lane ({!Adgc_rt.Cluster.start_gc},
      [Adgc_net.Node.install_duties]) follows [send_new_sets] with
      {!Adgc_rt.Reflist.probe_idle_scions} and
      {!Adgc_rt.Reflist.reap_dead_holders}.  The checker's [Send_sets]
      runs neither, so scion probes and dead-holder reaping are not
      part of the explored transition system. *)

type ctx = {
  rt : Adgc_rt.Runtime.t;
  store : Adgc_snapshot.Snapshot_store.t;
  scan_proc : int -> int;
      (** run one candidate scan on process [i]'s detector, returning
          detections started (supplied by the simulator, which owns
          the detector instances) *)
  maintain_proc : int -> unit;
      (** run the low-frequency full-trace audit of process [i]'s
          incremental candidate labels
          ({!Adgc_dcda.Detector.audit_candidates}); a no-op for
          detectors without a maintainer *)
}
(** Everything a duty needs; build one with {!Sim.kernel_ctx}. *)

type duty =
  | Snapshot of int
  | Scan of int
  | Lgc of int
  | Send_sets of int
  | Maintain_candidates of int
(** The process index each duty acts on. *)

val run_duty : ctx -> duty -> unit
(** Execute one duty synchronously (outbound messages go through the
    normal network path).  No aliveness guard: callers decide whether
    a dead process's timer simply skips (the simulator) or the duty is
    not offered at all (the checker). *)
