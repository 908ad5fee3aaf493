(** Cycle Detection Messages.

    A CDM travels along one stub of the candidate sub-graph: it is
    addressed to the process owning [frontier.target] and will be
    combined there with that process's summarized snapshot.  The
    algebra inside already contains the frontier reference in its
    target set (with the stub-side IC recorded by the sender); the
    receiver performs the paper's delivery-time safety checks against
    the scion side. *)

type t = {
  id : Detection_id.t;
  algebra : Algebra.t;
  frontier : Ref_key.t;  (** the stub this CDM was forwarded along *)
  hops : int;  (** processes visited so far, for statistics *)
  budget : int;
      (** remaining work allowance for this branch of the detection:
          each forward costs one and a fan-out splits what is left
          among the derivations, so a whole detection sends at most
          its initial budget of CDMs — the stateless defence against
          combinatorial fan-out on densely connected garbage *)
}

val make :
  id:Detection_id.t -> algebra:Algebra.t -> frontier:Ref_key.t -> hops:int -> budget:int -> t

val dest : t -> Proc_id.t
(** The owner of the frontier's target object. *)

val arity : int
(** The number of values {!emit} writes.  They are a record's fields:
    the record or case header is the carrier's to write, so a message
    payload spends one header on a CDM. *)

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation, without a header; its encoded size is what
    the message-size statistics report. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back; a negative id, hop count or budget is
    malformed. *)

val pp : Format.formatter -> t -> unit
