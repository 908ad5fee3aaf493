(** Per-detection provenance: the full hop chain of one cycle
    detection.

    Every CDM (or a comparison collector's query) already carries its
    {!Adgc_algebra.Detection_id}; the lineage registry keys on it and
    accumulates hops — who initiated, each send/receive with the
    algebra's source/target set sizes, every guard that killed a
    chain, and the conclusion.  A [Sent] with no matching [Received]
    at a later tick is a lost message.

    Disabled by default; when disabled {!record} is a single branch. *)

module Detection_id = Adgc_algebra.Detection_id
module Proc_id = Adgc_algebra.Proc_id
module Ref_key = Adgc_algebra.Ref_key

type hop =
  | Initiated of { at : Proc_id.t; time : int; candidate : Ref_key.t }
  | Sent of {
      at : Proc_id.t;
      dst : Proc_id.t;
      time : int;
      sources : int;  (** algebra source (scion) entries in flight *)
      targets : int;  (** algebra target (stub) entries in flight *)
      hops : int;
    }
  | Received of { at : Proc_id.t; time : int; sources : int; targets : int; hops : int }
  | Guard of { at : Proc_id.t; time : int; reason : string }
      (** chain killed: IC mismatch, missing scion, local reachability, ... *)
  | Concluded of { at : Proc_id.t; time : int; proven : bool; hops : int; refs : int }

type t

val create : ?max_hops:int -> unit -> t
(** Disabled until {!set_enabled}; at most 4096 detections and
    [max_hops] (default 1024) hops per detection are retained. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val record : t -> Detection_id.t -> hop -> unit

val set_span : t -> Detection_id.t -> int -> unit
(** Associate the detection with its {!Span} id, so CDM-hop spans can
    be parented under it. *)

val span : t -> Detection_id.t -> int option

val hops : t -> Detection_id.t -> hop list
(** Chronological (stable in recording order within a tick); empty
    for unknown detections. *)

val detections : t -> Detection_id.t list
(** Sorted; includes abandoned detections. *)

val pp_hop : Format.formatter -> hop -> unit

val pp_chain : Format.formatter -> t * Detection_id.t -> unit
