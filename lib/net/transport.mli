(** Socket plumbing for the multi-process driver.

    One {!conn} per peer: a nonblocking socket, an incremental
    {!Frame} decoder on the read side and a byte backlog on the write
    side.  A frame holds one {!Envelope.emit} value, encoded on its
    own ({!Adgc_serial.Net_codec.encode_shape}) and read back with
    {!Adgc_serial.Net_codec.Read.run}: no codec state outlives a
    frame, so the bytes a protocol message costs on a socket are the
    bytes the simulator charges it, plus the envelope's three-byte
    run [[3]].  Everything here is
    single-threaded and [Unix.select]-driven — calls never block.

    Failure model: any read/write error, EOF, or malformed frame marks
    the connection {e dead}; it is never half-usable.  Reconnecting
    means a fresh [conn]. *)

type addr = Unix_sock of string | Tcp of string * int

(** {1 Connections} *)

type conn

val fd : conn -> Unix.file_descr

val alive : conn -> bool

val close : conn -> unit
(** Idempotent; marks the connection dead. *)

val send : conn -> Envelope.t -> unit
(** Encode, frame, append to the write backlog and try to flush.  On a
    dead connection this is a silent no-op — the caller notices via
    {!alive} at its next poll. *)

val flush : conn -> unit
(** Push backlog bytes until the kernel pushes back ([EWOULDBLOCK]) or
    the backlog drains.  Write errors kill the connection. *)

val want_write : conn -> bool
(** Backlog non-empty — include the fd in the select write set. *)

val recv : conn -> Envelope.t list
(** Drain readable bytes and return every complete envelope, in order.
    Returns [[]] when nothing is pending.  EOF, a malformed frame or
    an undecodable envelope kills the connection: a peer that sent
    one is not trusted with the next. *)

(** {1 Endpoints} *)

val listen : addr -> Unix.file_descr
(** Bind + listen, nonblocking.  Unix-domain paths are unlinked first;
    TCP sockets set [SO_REUSEADDR]. *)

val accept : Unix.file_descr -> conn option
(** Nonblocking accept; [None] when no connection is pending. *)

val dial : ?attempts:int -> ?delay:float -> addr -> conn
(** Connect with retry: [attempts] tries (default 40) spaced by
    [delay] seconds (default 0.05) growing 1.5x up to 0.5s — enough
    patience for a coordinator that is still spawning its nodes.
    Raises [Failure] once exhausted. *)
