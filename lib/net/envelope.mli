(** Everything that crosses a socket, control plane included.

    Protocol traffic rides as [Net_msg] (the untouched {!Adgc_rt.Msg}
    wire representation, per-sender sequence number and all — which is
    what makes delivery idempotent under transport-level
    retransmission); the remaining constructors are the driver's
    control plane: connection handshake, liveness, run orchestration
    and state gathering.

    The wire form is one shape, {!emit}, and its direct reader,
    {!read}, both over {!Adgc_serial.Net_codec}: case {!kind}'s index
    and arity, then its fields.  A [Net_msg] frame is that three-byte
    header followed by exactly the {!Adgc_rt.Msg.emit} bytes the
    simulator charges the message. *)

type status = {
  st_rank : int;
  st_tick : int;
  st_ready : bool;  (** all peer links established *)
  st_reclaimed : Adgc_algebra.Oid.t list;  (** objects swept so far, oldest first *)
  st_wire_sent : int;
  st_wire_received : int;
  st_dup_ignored : int;  (** envelopes refused by [Process.note_delivery] *)
}

type t =
  | Hello of { rank : int; procs : int; seed : int }
      (** First frame on every connection, dialer first.  Rank [-1] is
          the coordinator.  [procs]/[seed] double as a configuration
          cross-check: a mismatched node must not join. *)
  | Start  (** coordinator -> node: begin duties; tick 0 is now *)
  | Heartbeat of { tick : int }
  | Net_msg of Adgc_rt.Msg.t  (** one protocol envelope, node -> node *)
  | Status_req
  | Status of status
  | State_req
  | State of Gather.node_state
  | Drop_peer of int
      (** coordinator -> node (tests): sever the link to that rank
          right now, as if the connection had failed; the normal
          reconnect machinery takes over. *)
  | Shutdown  (** coordinator -> node: flush, reply [Bye], exit *)
  | Bye

val emit : t Adgc_serial.Net_codec.shape

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back; every oid follows
    {!Adgc_algebra.Oid.read} (no negative owner or serial), and a
    [Net_msg] is as strict as {!Adgc_rt.Msg.read}. *)

val kind : t -> string
(** Stable tag for stats counters ("hello", "net_msg", ...). *)
