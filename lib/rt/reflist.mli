(** The acyclic distributed collector: reference listing.

    Implements the paper's substrate (§1): stub/scion creation when
    references are exported and imported, the periodic [NewSetStubs]
    exchange that lets owners discard scions, and a loss-tolerant
    handshake for third-party reference exports.

    Safety argument for the export handshake, under arbitrary message
    loss and reordering:

    - an {e owner-side} export (the sender owns the object) creates
      the scion synchronously, before the reference leaves — there is
      no window;
    - a {e third-party} export pins the sender's own stub until the
      owner acknowledges the new scion, so the sender keeps
      advertising the target and the owner cannot lose its last scion
      while the handshake (retried forever) is incomplete;
    - a fresh scion is unconfirmed: it cannot be deleted by stub sets
      computed before the new holder knew the reference, only by a set
      that follows one that listed the target;
    - finally, a stub set listing a target with no scion recreates it
      ("healing", covers a lost notice after its retransmissions were
      also lost), except for tombstoned keys the cycle detector
      deliberately killed. *)

open Adgc_algebra

val export_ref : Runtime.t -> from_:Process.t -> to_:Proc_id.t -> Oid.t -> unit
(** Run the scion-creation side of exporting one reference from
    [from_] to [to_].  No-op when [to_] owns the object.
    @raise Invalid_argument on a third-party export of a reference the
    sender holds no stub for. *)

val import_ref : Runtime.t -> at:Process.t -> Oid.t -> unit
(** Ensure a (fresh) stub exists for a reference that just arrived.
    No-op for local objects. *)

val handle_export_notice :
  Runtime.t -> at:Process.t -> src:Proc_id.t -> notice_id:int -> target:Oid.t -> new_holder:Proc_id.t -> unit

val handle_export_ack : Runtime.t -> at:Process.t -> notice_id:int -> unit

val would_advertise : Process.t -> bool
(** [send_new_sets] would emit at least one message: the process has
    stubs to list, or last-round recipients owed a (possibly empty)
    retraction set.  When false a round is a pure no-op — every fresh
    mark is already clear. *)

val send_new_sets : Runtime.t -> Process.t -> unit
(** One advertisement round: send each owner the set of its objects
    this process still references (plus one trailing set to owners
    advertised last round), then clear the freshness marks. *)

val handle_new_set :
  Runtime.t -> at:Process.t -> src:Proc_id.t -> seqno:int -> serials:int array -> ics:int array -> unit

val probe_idle_scions : Runtime.t -> Process.t -> threshold:int -> unit
(** Owner side of the keepalive: probe every holder from which no stub
    set has arrived for [threshold] ticks while we still hold scions
    for it.  Without this, losing a holder's final (empty) stub set
    would leak the scion forever. *)

val handle_probe : Runtime.t -> at:Process.t -> src:Proc_id.t -> unit
(** Holder side: answer with a fresh stub set for the prober. *)

val reap_dead_holders : Runtime.t -> Process.t -> unit
(** When [holder_silence_limit] is [Some limit]: drop every scion
    whose holder has been silent past [limit] (see the config
    documentation for the safety trade-off).  No-op otherwise. *)
