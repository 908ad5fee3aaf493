(** Messages exchanged between processes.

    Everything that crosses a process boundary is one of these
    payloads inside an envelope; the network can delay, drop and
    reorder envelopes arbitrarily, and every protocol in this
    repository is written to stay safe under that (the paper's
    "tolerates message loss"). *)

open Adgc_algebra

type payload =
  | Rmi_request of {
      req_id : int;
      target : Oid.t;  (** invoked object, owned by the destination *)
      args : Oid.t list;  (** references exported with the call *)
      stub_ic : int;
          (** the caller's invocation counter for [target] after this
              call's bump, piggy-backed as the paper prescribes; the
              owner's scion counter adopts heard values (max), so the
              two ends converge without ever double-counting in-flight
              or lost invocations *)
    }
  | Rmi_reply of {
      req_id : int;
      target : Oid.t;  (** the object that was invoked *)
      results : Oid.t list;  (** references exported with the reply *)
    }
  | Export_notice of {
      notice_id : int;
      target : Oid.t;  (** object owned by the destination *)
      new_holder : Proc_id.t;  (** process about to receive the reference *)
    }
      (** Third-party export handshake: the sender is forwarding a
          reference to [target] to [new_holder]; the owner must create
          a (pinned) scion before the reference lands. *)
  | Export_ack of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | New_set_stubs of {
      seqno : int;  (** per (sender, destination) sequence number *)
      serials : int array;
          (** serials of the destination's objects the sender still
              references, strictly ascending: the destination owns
              every target, so the serial names it *)
      ics : int array;
          (** the stub-side invocation counter of each, beside its
              serial — the counter lets the owner re-synchronize a
              scion whose invocations were lost in transit (a lost
              request bumps only the stub side and would otherwise
              wedge the IC safety check forever) *)
    }
      (** One owner's slice of the sender's stub table
          ({!Stub_table.iter_advertised}), as the table keeps it. *)
  | Scion_probe
      (** Owner-driven keepalive: "I still hold scions for you but have
          not heard a stub set in a while — send one."  Makes the
          protocol immune to losing the final (empty) stub set. *)
  | Cdm of Cdm.t
  | Cdm_delete of { id : Detection_id.t; scions : Ref_key.t list }
      (** Broadcast deletion mode: the concluding process tells other
          owners which of their scions were proven part of the cycle. *)
  | Ext of string
      (** Opaque bytes for a component outside the system, such as
          a comparison collector; delivered to {!Process.on_ext}.  The
          sender writes them with its own [Net_codec] shape, and its
          reader rejects anything else.  Carries no object
          references. *)
  | Batch of payload list
      (** Coalesced DGC control traffic: every payload queued for the
          same destination within one flush window travels as a single
          latency-charged envelope ({!Runtime.send_dgc}).  Delivery
          unpacks in queueing order.  Never nested, and never carries
          object references. *)

type t = {
  src : Proc_id.t;
  dst : Proc_id.t;
  seq : int;
      (** per-link envelope sequence number: [src] numbers its
          envelopes to [dst] 0, 1, 2, ...  The receiver ignores a
          (src, seq) pair it has already processed, which makes every
          delivery idempotent under network duplication.  Negative
          means unsequenced (never deduplicated); such an envelope
          cannot be written ({!emit}). *)
  sent_at : int;
  payload : payload;
}

val make : seq:int -> src:Proc_id.t -> dst:Proc_id.t -> sent_at:int -> payload -> t

val kind : payload -> string
(** Short tag for statistics counters ("rmi_request", "cdm", ...). *)

val kinds : string array
(** Every {!kind}, indexed by {!kind_index}. *)

val kind_index : payload -> int

val payload_refs : payload -> Oid.t list
(** Every object reference syntactically present in the payload
    (wire-accounting view). *)

val live_refs : payload -> Oid.t list
(** Object references an in-flight message actually keeps reachable —
    the refs its {e delivery} can import.  Differs from
    {!payload_refs} in one place: an [Rmi_reply]'s [target] field is
    never imported on delivery (only [results] are), so a reply racing
    the collector does not pin the called object.  This is the single
    ground-truth tracer seed set behind {!Cluster.live_among}, which
    every driver's safety check reads. *)

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation: one packed run of unsigned ints, the header
    [[src; dst; seq; sent_at]], then the payload's {!kind_index}, then
    its fields, an oid as {!Adgc_algebra.Oid.emit} and a reference
    key as {!Adgc_algebra.Ref_key.emit} write it:
    - [Rmi_request]: [[req_id; target; stub_ic; args...]];
    - [Rmi_reply]: [[req_id; target; results...]];
    - [Export_notice], [Export_ack]: [[notice_id; target; new_holder]];
    - [New_set_stubs]: [[seqno; serial; ic; gap; ic; ...]]: the owner
      is [dst], and each serial after the first is sent as its gap to
      the one before ([serial - previous - 1]); [[seqno]] alone for an
      empty set;
    - [Scion_probe]: nothing;
    - [Cdm]: {!Cdm.emit_items};
    - [Cdm_delete]: [[initiator; seq; (src; owner; serial)...]];
    - [Ext]: nothing in the run; its body follows it as a string;
    - [Batch]: [[n]], and its [n] constituents follow the run, each as
      a run of its own ({!emit_payload}).

    {!Network} charges each envelope its [Net_codec.size], and the
    socket driver sends these bytes.
    @raise Invalid_argument on a negative int in the run (an
    unsequenced envelope among them, a stub set whose serials do not
    strictly ascend) or a stub set with unequal serial and IC
    counts. *)

val emit_payload : payload Adgc_serial.Net_codec.shape
(** A payload as a run of its own, [[kind; fields...]], followed by
    what follows {!emit}'s run: how a [Batch] sends each
    constituent. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back.  Malformed: a run shorter than the
    header and kind, an unknown kind, a run that is not the kind's
    fixed fields plus whole entries, a stub set serial past [max_int],
    a [Batch] nested inside a [Batch], and a [Batch] constituent that
    carries references. *)
