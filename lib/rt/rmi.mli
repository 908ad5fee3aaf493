(** Remote method invocation.

    A call names a remote target object (the caller must hold a stub
    for it), ships argument references through the export machinery,
    runs a caller-supplied body at the callee, and ships result
    references back.  Every request and its matching reply bump the
    invocation counters of the traversed stub/scion pair — the
    counters the DCDA's race barrier is built on (paper §3.2).

    Pins protect the references involved in a call for its duration:
    the target stub and every remote argument stub stay advertised
    until the reply lands (or a generous timeout fires, bounding
    floating garbage when the network ate the reply). *)

open Adgc_algebra

val call :
  Runtime.t ->
  src:Proc_id.t ->
  target:Oid.t ->
  ?args:Oid.t list ->
  ?behavior:Runtime.behavior ->
  ?on_reply:(Oid.t list -> unit) ->
  unit ->
  unit
(** Asynchronous invocation; [on_reply] fires at the caller when the
    reply is delivered (never on a dropped reply).
    @raise Invalid_argument when [target] is local to [src] or no stub
    is held for it. *)

val handle_request :
  Runtime.t ->
  at:Process.t ->
  src:Proc_id.t ->
  req_id:int ->
  target:Oid.t ->
  args:Oid.t list ->
  stub_ic:int ->
  unit

val handle_reply :
  Runtime.t -> at:Process.t -> req_id:int -> target:Oid.t -> results:Oid.t list -> unit
