(** One participant of the distributed system.

    A process bundles its heap, its DGC tables, the handler hooks
    through which pluggable components (the cycle detector, or a
    comparison collector through {!Msg.Ext}) receive their traffic — and {e all} of its
    protocol kernel state: the ids it mints, the RMI calls and export
    handshakes it has in flight, the DGC batches it is coalescing.
    Nothing protocol-related is shared between processes; handling a
    delivery or running a duty is a transition on one process's state
    plus outbound messages, mirroring the paper's
    no-global-synchronization process model.  The protocol logic
    itself lives in {!Reflist}, {!Rmi} and {!Lgc}, driven through the
    shared {!Runtime} context (scheduler, network, stats — the
    simulator's shell, not protocol state). *)

open Adgc_algebra

type behavior = t -> target:Oid.t -> args:Oid.t list -> Oid.t list
(** The body run at the callee: receives the callee process and the
    imported argument references; returns the references to ship back
    in the reply.  {!Rmi.call} wraps the user-facing
    {!Runtime.behavior} (which also receives the runtime context)
    into this form at registration time. *)

and pending_call = {
  call_target : Oid.t;
  pinned : Oid.t list;  (** stubs pinned at the caller for this call *)
  on_reply : (Oid.t list -> unit) option;
}

and pending_notice = { notice_target : Oid.t; new_holder : Proc_id.t }

and batch_queue = { mutable queued : Msg.payload list; opened_at : int }
(** Payloads (newest first) plus the tick the queue opened, so the
    flush span covers the whole coalescing window. *)

and relay_queue = {
  mutable rel_queued : (Proc_id.t * Proc_id.t * Msg.payload) list;
      (** [(orig_src, final_dst, payload)] entries, newest first *)
  rel_opened_at : int;
}
(** Cross-group DGC traffic awaiting its {!Msg.Group_relay} flush,
    queued per destination group (see {!Runtime.send_dgc}). *)

and t = {
  id : Proc_id.t;
  heap : Heap.t;
  stubs : Stub_table.t;
  scions : Scion_table.t;
  rng : Adgc_util.Rng.t;
  mutable alive : bool;
      (** crash-stop flag: a dead process sends and receives nothing
          and performs no duties; its state is unreachable wreckage
          (until a scheduled {!Faults.Restart} revives it) *)
  mutable next_msg_seq : int;  (** next envelope sequence number (all outgoing traffic) *)
  delivered : (int, unit) Hashtbl.t;
      (** packed (sender, seq) pairs already processed — the receiver
          side of envelope-level duplicate suppression *)
  delivered_high : (int, int) Hashtbl.t;
      (** per-sender highest sequence number delivered so far *)
  delivered_floor : (int, int) Hashtbl.t;
      (** per-sender floor left by {!prune_delivered}: sequence
          numbers below it are refused without a table lookup *)
  (* Reference-listing state *)
  out_seqnos : (int, int) Hashtbl.t;  (** next NewSetStubs seqno per destination *)
  mutable set_recipients : Proc_id.Set.t;
      (** owners that received a non-empty stub set last round (they
          get one trailing, possibly empty, set) *)
  (* Protocol kernel state, all per-process *)
  mutable next_req_id : int;  (** next RMI request id minted by this caller *)
  mutable next_notice_id : int;  (** next export-notice id minted by this exporter *)
  behaviors : (int, behavior) Hashtbl.t;
      (** pending RMI bodies this process registered as caller, by
          request id (the callee fetches the body from the caller's
          table — the simulator's stand-in for shipping code) *)
  pending_calls : (int, pending_call) Hashtbl.t;  (** caller-side in-flight RMIs *)
  pending_notices : (int, pending_notice) Hashtbl.t;
      (** third-party export handshakes this process initiated,
          awaiting acknowledgement *)
  pending_batches : (int, batch_queue) Hashtbl.t;
      (** DGC payloads queued per destination awaiting their batch
          flush *)
  pending_relays : (int, relay_queue) Hashtbl.t;
      (** cross-group DGC entries queued per destination {e group}
          awaiting their relay flush (only populated when the runtime
          config enables group relaying) *)
  (* Detector hooks *)
  mutable on_cdm : (Cdm.t -> unit) option;
  mutable on_cdm_delete : (Detection_id.t -> Ref_key.t list -> unit) option;
  mutable on_ext : (src:Proc_id.t -> string -> unit) option;
      (** receives {!Msg.Ext} bodies: the hook a component outside the
          system (a comparison collector) attaches through *)
  mutable pstore : Pstore.t option;
      (** optional paged persistent store; collector duties report
          their object traversals to it (experiment E17) *)
}

val create : id:Proc_id.t -> rng:Adgc_util.Rng.t -> t

val next_out_seqno : t -> dst:Proc_id.t -> int
(** Increment and return the NewSetStubs sequence number for that
    destination. *)

val next_msg_seq : t -> int
(** Allocate the envelope sequence number for an outgoing message
    ({!Runtime.send} stamps it on every envelope). *)

val fresh_req_id : t -> int
(** Mint the next RMI request id.  Ids are unique per caller; the
    wire pairs them with the caller's identity. *)

val fresh_notice_id : t -> int
(** Mint the next export-notice id (unique per exporter). *)

val note_delivery : t -> src:Proc_id.t -> seq:int -> bool
(** [true] on first delivery of that (sender, seq) envelope; [false]
    for a replay, which the dispatcher must ignore.  Unsequenced
    envelopes ([seq < 0]) are always fresh.  Sequences below a floor
    left by {!prune_delivered} are refused as stale. *)

val delivered_count : t -> int
(** Number of individual (sender, seq) entries currently retained. *)

val prune_delivered : ?slack:int -> t -> int
(** Truncate the duplicate-suppression table: for each sender, replace
    every entry more than [slack] (default 64) sequence numbers behind
    that sender's high-water mark with a per-sender floor.  Sub-floor
    envelopes are subsequently refused outright — sound, because such
    an envelope is indistinguishable from a loss, which every protocol
    tolerates.  Returns the number of entries removed.  Called at
    quiescence points ({!Cluster.restart}); long crash/restart runs
    would otherwise grow the table without bound. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: heap size, stub/scion counts. *)
