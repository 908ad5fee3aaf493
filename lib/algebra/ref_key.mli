(** Identity of one inter-process reference.

    A remote reference is the pair of a {e stub} at the holding
    process and a {e scion} at the owning process; both sides are
    identified by the same key: the holder ([src]) and the referenced
    object ([target]).  Reference-listing keeps one stub/scion pair
    per such key (several local objects in [src] holding the same
    remote reference share it), which is exactly the granularity of
    the paper's algebra entries: the entry the paper writes as
    [F_P2] (traversed from P1) is the key
    [{src = P1; target = F@P2}]. *)

type t = { src : Proc_id.t; target : Oid.t }

val make : src:Proc_id.t -> target:Oid.t -> t

val owner : t -> Proc_id.t
(** The process owning [target], i.e. where the scion lives. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [P1->#3@P2]. *)

val emit : t Adgc_serial.Net_codec.shape
(** The one wire form of a reference key: three items,
    [[src; owner; serial]], of the packed run its carrier opened, the
    target as {!Oid.emit}. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s three items back. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
