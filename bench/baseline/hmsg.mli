(** Message payloads of the Hughes-style timestamp baseline.

    Hughes' collector (the paper's related work [7]) propagates
    timestamps from roots towards scions; a scion whose timestamp
    falls below a {e global minimum} — computed over all processes —
    is garbage.  The payloads travel as {!Adgc_rt.Msg.Ext} bodies,
    as {!Btmsg}'s do. *)

open Adgc_algebra

type t =
  | Stamp of (Oid.t * int) list
      (** stub-side timestamps for objects owned by the destination *)
  | Report of { round_time : int }
      (** a process tells the coordinator it completed a propagation
          round *)
  | Threshold of { value : int }
      (** the coordinator's new global minimum *)

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation, the body of an {!Adgc_rt.Msg.Ext}: one packed
    run, [[kind; fields...]], a stamp entry as [[owner; serial; stamp]].
    Stamps, round times and thresholds are never negative: a round
    stamps with a tick, and the coordinator only raises its threshold
    from [-1].
    @raise Invalid_argument on a negative one. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back, as {!Btmsg.read}. *)
