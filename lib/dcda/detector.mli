(** The Distributed Cycle Detection Algorithm (one instance per
    process).

    A detector works exclusively on its process's {e published
    summary} (never the live tables), initiates detections from
    candidate scions, and processes arriving CDMs by pairwise
    combination of the carried algebra with the summary, enforcing the
    paper's safety rules (§2.2):

    + CDM addressed to a scion absent from the summary → discarded;
    + stub-side IC in the CDM differs from the scion-side IC in the
      summary → detection terminated (mutator raced the detector);
    + a derivation equal to the delivered CDM carries no new
      information → that branch stops (termination, §3.1 step 15);
    + locally reachable stubs are never followed, and a scion whose
      target is locally reachable terminates the detection (negative).

    Matching with both sets empty proves a distributed garbage cycle;
    the detector then deletes scions according to the
    {!Policy.deletion_mode} and lets the acyclic collector cascade. *)

open Adgc_algebra

type t

val attach : Adgc_rt.Runtime.t -> Adgc_rt.Process.t -> policy:Policy.t -> t
(** Create the instance, attach its {!Candidates} maintainer and
    install its message hooks on the process.  Scans seed from the
    maintainer's candidate set, frozen at each summary publish. *)

val proc_id : t -> Proc_id.t

val policy : t -> Policy.t

val candidates : t -> Candidates.t
(** The attached incremental candidate maintainer. *)

val audit_candidates : t -> bool
(** Run the full-trace audit ({!Candidates.audit}); [false] — plus a
    log line and the ["dcda.candidates.audit_mismatch"] counter — on
    divergence.  Scheduled as the low-frequency
    [Kernel.Maintain_candidates] duty. *)

val set_summary : t -> Adgc_snapshot.Summary.t -> unit
(** Publish a freshly taken summary (see {!Adgc_snapshot.Snapshot_store}). *)

val summary : t -> Adgc_snapshot.Summary.t option

(** {1 Driving} *)

val scan : t -> int
(** Filter, arrange and pick this round's candidates from the
    maintainer's set frozen at the last publish (advancing the
    rotating cursor), and initiate a detection per pick; returns how
    many were started. *)

val initiate : t -> Ref_key.t -> bool
(** Force a detection from one scion (tests and the CLI use this);
    [false] when the summary rejects it (missing, or locally
    reachable target). *)

val handle_cdm : t -> Cdm.t -> unit
(** Normally invoked through the process hook. *)

(** {1 Results} *)

val reports : t -> Report.t list
(** Cycles proven at this process, oldest first. *)

val detections_started : t -> int
