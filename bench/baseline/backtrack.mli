(** Distributed back-tracing cycle detector — the comparison baseline.

    A simplified reconstruction of Maheshwari & Liskov's PODC'97
    back-tracing (the paper's related work, [11]): from a suspect
    scion, trace {e backwards} through the references that lead to it;
    the suspect is garbage exactly when no back-path reaches a local
    root.  Like the original, it needs per-process state for every
    detection in course (continuations waiting on child back-traces),
    visited marks carried with the queries, and a reply for every
    query — the structural costs the DCDA avoids, which experiment E7
    measures side by side.

    Back-traces read the same published summaries as the DCDA.  The
    original achieves safety under mutation with transfer barriers we
    do not reproduce; run it on quiescent systems (as the E7 bench
    does).  This is a deliberate simplification in the baseline's
    favour — it only strengthens the comparison when the DCDA wins.

    {b Unsafe under mutation.}  It has no invocation counters, so a
    reference re-passed to a process that already holds a stub for it
    goes unseen.  On the no-crash sweep instance of seed 2077 (the
    random-crash property's workload, no crash) it sweeps the same
    four live objects as the DCDA, first [#5@P2] at t=2851;
    docs/ALGORITHM.md has the table.  It is a comparator, not part of
    the system, and no safety fix covers it. *)

open Adgc_algebra

type t

val attach : ?timeout:int -> Adgc_rt.Runtime.t -> Adgc_rt.Process.t -> t
(** Installs the process's [on_ext] hook; a body {!Btmsg.read}
    rejects is dropped and counted under ["bt.malformed"].  Timeout
    (default 50 000 ticks) bounds how long initiator and intermediate
    state lives. *)

val install : ?timeout:int -> idle_threshold:int -> Adgc.Sim.t -> t array
(** Run back-tracing as a sim's cycle detector, in place of the
    DCDA: {!attach} to every process, feed each instance its
    process's published summaries, and add one [scan] lane with the
    policy's [scan_period] through {!Adgc.Kernel.start}, so
    {!Adgc.Sim.stop} and teardown cancel it.  {!Adgc.Sim.start}
    installs the sim's own duties, before or after this.  Meant for a
    sim configured with [No_detector]. *)

val set_summary : t -> Adgc_snapshot.Summary.t -> unit

val suspect : t -> Ref_key.t -> bool
(** Start a back-trace from one of this process's scions; [false] when
    the summary rejects it.  On a garbage verdict the scion is deleted
    (with a tombstone), as the DCDA would. *)

val scan : t -> idle_threshold:int -> int
(** Initiate a back-trace from every idle, locally-unreachable scion. *)

val verdicts : t -> (Ref_key.t * bool) list
(** Concluded suspicions at this initiator: [(scion, was_garbage)],
    oldest first. *)

val state_size : t -> int
(** Continuations + memo entries currently held — the per-process
    detection state the paper's related-work section criticizes. *)
