(** Everything that crosses a socket, control plane included.

    Protocol traffic rides as [Net_msg] (the untouched {!Adgc_rt.Msg}
    wire representation, per-sender sequence number and all — which is
    what makes delivery idempotent under transport-level
    retransmission); the remaining constructors are the driver's
    control plane: connection handshake, liveness, run orchestration
    and state gathering.

    The wire form is one shape, {!emit}, and its direct reader,
    {!read}, both over {!Adgc_serial.Net_codec}: one packed run,
    [[kind; fields...]], the kind being the constructor's index.  A
    [Net_msg] frame is the three-byte run [[3]] followed by exactly the
    {!Adgc_rt.Msg.emit} bytes the simulator charges the message; a
    [State] frame is [[7]] followed by {!Gather.emit}'s runs. *)

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
      (** First frame on every connection, dialer first; only nodes
          dial, so [rank] is never negative.  [procs]/[seed] double as
          a configuration cross-check: a mismatched node must not
          join.  [seed] is the one field that may be negative: it
          travels as its sign and then [seed] or [lnot seed]. *)
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
(** Fields in constructor order, a [Status]'s [st_reclaimed] last;
    [st_ready] is 0 or 1.
    @raise Invalid_argument on any other negative field. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back.  Malformed: a kind out of range, a
    run that is not exactly the kind's fields ([Status]: whole
    reclaimed ids after the fixed six), a flag other than 0 or 1, and
    anything {!Adgc_rt.Msg.read} or {!Gather.read} refuses. *)

val kind : t -> string
(** Stable tag for stats counters ("hello", "net_msg", ...). *)
