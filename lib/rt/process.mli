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

module Seqs : Set.S with type elt = int
(** Sets of envelope sequence numbers. *)

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

and inbound = { mutable floor : int; mutable above : Seqs.t }
(** What one sender's link has delivered here: every seq below
    [floor], and the seqs in [above].  A delivery at the floor moves
    it past every contiguous seq in [above], so a link that delivers
    in order keeps [above] empty; only gaps (a loss, a reordering, a
    refusal while down) leave entries. *)

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
  out_seqs : (int, int ref) Hashtbl.t;
      (** next envelope sequence number per destination: each link
          numbers its envelopes 0, 1, 2, ... *)
  inbound : (int, inbound) Hashtbl.t;
      (** per sender, the seqs delivered on its link — the receiver
          side of envelope-level duplicate suppression *)
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
  (* Detector hooks *)
  mutable on_cdm : (Cdm.t -> unit) option;
  mutable on_cdm_delete : (Detection_id.t -> Ref_key.t list -> unit) option;
  mutable on_ext : (src:Proc_id.t -> string -> unit) option;
      (** receives {!Msg.Ext} bodies: the hook a component outside the
          system (a comparison collector) attaches through *)
}

val create : id:Proc_id.t -> rng:Adgc_util.Rng.t -> t

val next_out_seqno : t -> dst:Proc_id.t -> int
(** Increment and return the NewSetStubs sequence number for that
    destination. *)

val next_link_seq : t -> dst:Proc_id.t -> int
(** Allocate the envelope sequence number for an outgoing message to
    that destination ({!Runtime.send} stamps it on every envelope).
    Each destination's numbers start at 0 and have no gaps. *)

val fresh_req_id : t -> int
(** Mint the next RMI request id.  Ids are unique per caller; the
    wire pairs them with the caller's identity. *)

val fresh_notice_id : t -> int
(** Mint the next export-notice id (unique per exporter). *)

val note_delivery : t -> src:Proc_id.t -> seq:int -> bool
(** [true] on first delivery of that (sender, seq) envelope; [false]
    for a replay, which the dispatcher must ignore: a seq below the
    link's floor, or one already in its [above] set.  Unsequenced
    envelopes ([seq < 0]) are always fresh. *)

val delivered_count : t -> int
(** Number of delivered seqs held above their link's floor, over all
    senders: 0 when every link has delivered without a gap.  Kept for
    [test_failures], which watches the duplicate-suppression state
    fill behind a gap and drain when it closes. *)

val prune_delivered : t -> int
(** Give up old gaps: on each link whose highest delivered seq [hi]
    is more than 64 above its floor, move the floor to [hi - 64],
    dropping the entries below it.  Envelopes below the floor are
    refused from then on — sound, because such an envelope is
    indistinguishable from a loss, which every protocol tolerates.
    Returns the number of entries removed.  Called at
    quiescence points ({!Cluster.restart}); long crash/restart runs
    would otherwise keep every gap a crash left. *)
