(** Message payloads of the Hughes-style timestamp baseline.

    Hughes' collector (the paper's related work [7]) propagates
    timestamps from roots towards scions; a scion whose timestamp
    falls below a {e global minimum} — computed over all processes —
    is garbage.  The payloads live here so the runtime's closed
    message type can carry them (same arrangement as {!Btmsg}). *)

type t =
  | Stamp of (Oid.t * int) list
      (** stub-side timestamps for objects owned by the destination *)
  | Report of { round_time : int }
      (** a process tells the coordinator it completed a propagation
          round *)
  | Threshold of { value : int }
      (** the coordinator's new global minimum *)

val pp : Format.formatter -> t -> unit

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation, inside {!Adgc_rt.Msg.emit}. *)

val cases : (Adgc_serial.Net_codec.Name.t * int) array
(** The record headers {!emit} writes, for
    {!Adgc_serial.Net_codec.Read.variant}. *)

val read_case : Adgc_serial.Net_codec.Read.t -> int -> t
(** The rest of the record whose header [Read.variant r cases] read,
    as {!Cdm.read_case}; a negative id is malformed. *)
