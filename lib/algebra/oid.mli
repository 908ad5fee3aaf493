(** Globally unique object identifiers.

    An object is identified by the process that allocated (and owns)
    it plus a per-process serial number.  Objects never migrate in
    this system (the paper explicitly rejects migration-based cycle
    collection), so the owner in the identifier is authoritative for
    the object's whole lifetime. *)

type t = { owner : Proc_id.t; serial : int }

val make : owner:Proc_id.t -> serial:int -> t

val owner : t -> Proc_id.t

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [#12@P3]. Workloads that name objects after the paper's
    figures (A, B, F, ...) print through their own name table. *)

val emit : t Adgc_serial.Net_codec.shape
(** The one wire form of an id: two items, [[owner; serial]], of the
    packed run its carrier opened. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s two items back; a run item is never negative. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
