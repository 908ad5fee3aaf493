(** Identity of one cycle detection.

    A detection is named by the process that initiated it and a local
    sequence number, so several detections can be in flight at once —
    "several detections can be performed in parallel, at any rate of
    progress, and comprising any number of processes, without
    conflict" (paper §3.1). *)

type t = { initiator : Proc_id.t; seq : int }

val make : initiator:Proc_id.t -> seq:int -> t

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Map : Map.S with type key = t

module Set : Set.S with type elt = t
