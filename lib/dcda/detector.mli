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
(** Create the instance and install its message hooks on the
    process.  Scans seed from the published summary. *)

val proc_id : t -> Proc_id.t

val policy : t -> Policy.t

val set_summary : t -> Adgc_snapshot.Summary.t -> unit
(** Publish a freshly taken summary (see {!Adgc_snapshot.Snapshot_store}). *)

val summary : t -> Adgc_snapshot.Summary.t option

(** {1 Driving} *)

val scan : t -> int
(** Filter, arrange and pick this round's candidates, and initiate a
    detection per pick (advancing the rotating cursor); returns how
    many were started.  The source is the published summary's scions
    whose target is not locally reachable, in ascending key order: the
    summarizer's root trace decides that bit at each snapshot, so the
    source is exactly as stale as the summary and a root added since
    the publish does not remove a candidate until the next one. *)

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
