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

val items : t -> int
(** The number of ints {!emit_items} writes: the header's seven, then
    the algebra's {!Algebra.compact_length}. *)

val emit_items : t Adgc_serial.Net_codec.shape
(** Wire representation, as items of the packed run its carrier opens:
    [[initiator; seq; f_src; f_owner; f_serial; hops; budget]] (the
    frontier is [f_src]'s reference to [f_serial] at [f_owner]), then
    the algebra's {!Algebra.emit_entries}. *)

val read_items : Adgc_serial.Net_codec.Read.t -> int -> t
(** [read_items r n] reads [n] items of {!emit_items} back.  Fewer
    items than the header, or a malformed algebra
    ({!Algebra.read_entries}), is malformed. *)
