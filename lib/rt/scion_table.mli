(** Incoming remote references (scions) of one process.

    One entry per (remote holder, local object) pair.  Scions are the
    GC roots the local collector must honour; they are deleted when a
    [NewSetStubs] from the holder no longer lists the object — but
    only once the holder has {e acknowledged} the reference at least
    once (the [confirmed] flag), which makes the export handshake
    loss-tolerant: a scion created for an in-flight reference cannot
    be killed by a stub set that was computed before the reference
    arrived.  Per-holder sequence numbers discard reordered or
    duplicated stub sets.

    The table is grouped by holder, so the operations that concern one
    holder ({!apply_new_set}, {!delete_from}) cost that holder's
    scions, not the owner's whole table. *)

open Adgc_algebra

type entry = private {
  key : Ref_key.t;
  mutable ic : int;
  mutable confirmed : bool;
      (** a stub set (or equivalent acknowledgement) from the holder
          has listed this target at least once *)
  mutable created_at : int;
  mutable last_invoked : int;
      (** simulated time of the last invocation delivered through this
          reference; the DCDA candidate heuristic reads it *)
}

type t

val create : owner:Proc_id.t -> t

val owner : t -> Proc_id.t

val ensure : t -> now:int -> Ref_key.t -> entry
(** Find or create.
    @raise Invalid_argument if the target is not owned by this
    process, or if the holder is this process itself. *)

val find : t -> Ref_key.t -> entry option

val mem : t -> Ref_key.t -> bool

val delete : ?tombstone:bool -> t -> Ref_key.t -> bool
(** [true] if it existed.  With [~tombstone:true] (the DCDA's proven
    cycle deletion) the key is remembered so that a later stub set
    from the holder — who has not collected its side of the cycle yet
    and therefore still advertises the reference — cannot "heal" the
    scion back into existence.  The tombstone dissolves on the first
    stub set from that holder that no longer lists the target. *)

val tombstoned : t -> Ref_key.t -> bool

val confirm : entry -> unit
(** Mark the entry as acknowledged by its holder (healing and
    bootstrap wiring; normal confirmation happens in
    {!apply_new_set}). *)

val sync_ic : entry -> int -> unit
(** Raise the invocation counter to the given stub-side value if it is
    ahead (never lowers it).

    The scion-side counter is defined as {e the owner's knowledge of
    the stub-side counter}: it only ever adopts values heard from the
    holder (piggy-backed on invocations and on stub sets), so it can
    never run ahead of the stub, in-flight invocations are never
    double-counted, and after quiescence plus one stub-set exchange
    the two ends are equal. *)

val observe_invocation : t -> now:int -> Ref_key.t -> stub_ic:int -> unit
(** An invocation carrying the holder's counter was delivered through
    this reference: adopt the counter and refresh [last_invoked].
    @raise Invalid_argument when absent. *)

val ic : t -> Ref_key.t -> int option

(** {1 Stub-set processing} *)

type apply_result = {
  deleted : Ref_key.t list;  (** scions removed by this set, in ascending key order *)
  unknown : (Oid.t * int) list;
      (** targets (with stub-side ICs) listed by the holder for which
          no scion existed — the self-healing path for lost export
          notices; the caller recreates them for objects still alive *)
  stale : bool;  (** the set was out of order and ignored *)
}

val apply_new_set :
  ?grace:int -> t -> now:int -> src:Proc_id.t -> seqno:int -> targets:int Oid.Map.t -> apply_result
(** Listed scions are confirmed and their invocation counter raised to
    the advertised stub-side value when it is ahead (the two drift
    apart when an invocation request is lost: the stub was bumped at
    the send, the scion never saw the delivery; without
    re-synchronization the DCDA's IC check would reject that reference
    forever).

    An {e unconfirmed} scion that the set does not list is normally
    kept (the export may still be in flight).  [grace] (default
    [max_int]: never) bounds that protection: once the scion is older
    than [grace] ticks, an excluding set deletes it — sound whenever
    [grace] exceeds the maximum message lifetime plus one
    advertisement period, because by then a holder that had received
    the reference would have listed it.  This reclaims scions whose
    reference was exported but lost in transit. *)

val last_seqno : t -> Proc_id.t -> int
(** Highest stub-set sequence number accepted from that holder; -1
    initially. *)

val idle_sources : t -> now:int -> threshold:int -> Proc_id.t list
(** Holders we have scions from but no stub set (nor scion creation)
    within [threshold] ticks — candidates for a {!Msg.Scion_probe}.
    The probe/answer pair makes the protocol tolerate losing the final
    (empty) stub set a departing holder sends. *)

val touch_all_sources : t -> now:int -> unit
(** Pretend every holder just spoke: reset the silence clock of every
    source to [now].  A restarting owner calls this so its own
    downtime is not mistaken for every holder's crash by
    [failure_detection] the moment it rejoins. *)

(** {1 Queries used by the collector and the summarizer} *)

val protected_targets : t -> Oid.t list
(** Distinct local objects with at least one scion — extra GC roots
    for the LGC. *)

val entries : t -> entry list
(** Ascending key order. *)

val entries_for_target : t -> Oid.t -> entry list

val delete_from : t -> Proc_id.t -> Ref_key.t list
(** Remove every scion held by that process (crash-stop reclamation);
    returns the removed keys, in ascending order. *)

val drop_for_targets : t -> Oid.Set.t -> int
(** Remove every scion whose target is in the set (used when the LGC
    has swept the objects themselves, e.g. after cycle deletion);
    returns how many were dropped. *)

val size : t -> int
