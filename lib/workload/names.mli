(** Human names for objects, in the paper's figure style ([A_P1],
    [F_P2], ...).  Builders register names; traces and examples print
    through them. *)

open Adgc_algebra

type t

val create : unit -> t

val register : t -> Adgc_rt.Heap.obj -> string -> unit

val pp_oid : t -> Format.formatter -> Oid.t -> unit
(** Prints [F@P2] when registered, the raw oid otherwise. *)

val pp_ref : t -> Format.formatter -> Ref_key.t -> unit
(** Prints [P1->F@P2]. *)
