(** Length-prefixed framing for the socket transport.

    A frame is a 4-byte big-endian unsigned length followed by exactly
    that many payload bytes (one {!Adgc_serial.Net_codec}-encoded
    envelope).  The decoder is incremental: feed it whatever chunk
    sizes [read()] happens to return — including a length prefix split
    across two reads — and pull complete frames out as they become
    available.

    Corrupt input (a length of zero, or one beyond the 16 MiB bound)
    raises {!Adgc_serial.Wire.Malformed} and nothing else: a framing
    error is always distinguishable from a crash, and the transport
    answers it by resetting the connection. *)

val encode : string -> string
(** The payload with its 4-byte length prefix.
    @raise Adgc_serial.Wire.Malformed when the payload is empty or
    exceeds 16 MiB (a frame that could never be decoded must not
    be sent). *)

type decoder

val decoder : unit -> decoder

val feed_sub : decoder -> Bytes.t -> int -> int -> unit
(** [feed_sub d buf off len]: append [len] raw bytes of [buf] from
    [off], as they arrived from the socket. *)

val next : decoder -> string option
(** The next complete frame payload, or [None] until more bytes
    arrive.  Call repeatedly — one [feed_sub] can complete several frames.
    @raise Adgc_serial.Wire.Malformed on a corrupt length prefix; the
    decoder is then poisoned and every later call re-raises. *)
