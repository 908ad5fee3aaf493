(** The paper's safety claims, made mechanical — written once here and
    run by every driver.

    - a globally-live object is never swept ({!Live_reclaimed});
    - a globally-live object never holds a reference into freed memory
      ({!Dangling_ref});
    - every scion guards an object that still exists in its owner's
      heap ({!Scion_dangles});
    - invocation counters are conserved per stub/scion pair: the
      scion-side counter — the owner's knowledge of the stub-side
      counter — never runs ahead of the stub it mirrors
      ({!Ic_regression}; see {!Adgc_rt.Scion_table.sync_ic}; stub
      counters are monotone per (process, target) even across entry
      recreation, which makes the comparison sound at any instant).

    The last three are instantaneous and read a {!view}, which the
    in-memory cluster ({!check}) and the socket driver's gathered node
    states ([Adgc_net.Gather.check]) both provide.  The first is
    temporal: {!watch_sweeps} judges every doomed list in the pre-sweep
    hook, with every heap still intact.  The simulator's {!Oracle} and
    the model checker's [System] both install it.

    Ground truth is the cluster's own tracer
    ({!Adgc_rt.Cluster.live_predicate}, {!Adgc_rt.Cluster.live_among}),
    which no protocol state can influence; it counts the references
    in-flight messages keep importable ([Adgc_rt.Msg.live_refs]). *)

open Adgc_algebra

type violation =
  | Live_reclaimed of { proc : Proc_id.t; oid : Oid.t }
      (** an LGC was about to sweep (or swept) a globally-live object *)
  | Dangling_ref of { proc : Proc_id.t; holder : Oid.t; target : Oid.t }
      (** a globally-live object's field points at freed memory *)
  | Scion_dangles of { key : Ref_key.t }
      (** a scion protects an object its owner already freed *)
  | Ic_regression of { key : Ref_key.t; stub_ic : int; scion_ic : int }
      (** the scion counter overtook the stub counter it mirrors *)

val pp : Format.formatter -> violation -> unit

val kind : violation -> string
(** Stable machine-readable tag ("live_reclaimed", "dangling_ref",
    "scion_dangles", "ic_regression") — what counterexample traces
    record. *)

val describe : violation -> string
(** [pp] rendered to a string. *)

(** What the instantaneous invariants read of a system's state.  Dead
    processes are wreckage: they are not in [procs], and references,
    scions and stubs that lead into one are not judged (they become
    judgeable again if it restarts). *)
type view = {
  procs : Proc_id.t list;  (** the surviving processes, in report order *)
  alive : Proc_id.t -> bool;
  is_live : Oid.t -> bool;  (** ground truth: globally reachable *)
  mem : Oid.t -> bool;  (** the object is in its surviving owner's heap *)
  iter_refs : Proc_id.t -> (Oid.t -> Oid.t -> unit) -> unit;
      (** [iter_refs p f] calls [f holder target] for every field of
          every object in [p]'s heap *)
  iter_scions : Proc_id.t -> (Ref_key.t -> int -> unit) -> unit;
      (** [iter_scions p f] calls [f key scion_ic] for every scion at [p] *)
  stub_ic : Proc_id.t -> Oid.t -> int option;
      (** the counter of the holder's stub for the target, if any *)
}

val structural : view -> violation list
(** [Dangling_ref], [Scion_dangles] and [Ic_regression] over the view:
    per process in [procs] order, its references first, then its
    scions.  A scion whose target is gone is reported as dangling
    only. *)

val check : Adgc_rt.Cluster.t -> violation list
(** {!structural} over the whole cluster, judged against
    {!Adgc_rt.Cluster.live_predicate}. *)

val watch_sweeps : Adgc_rt.Cluster.t -> (violation -> unit) -> unit
(** Install the pre-sweep [Live_reclaimed] check: before any LGC
    removes anything, every globally-live object of its doomed list is
    reported, in doomed-list order.  A previously installed hook keeps
    running, first. *)
