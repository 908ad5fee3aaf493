(** Application-side operations.

    Everything a program can do to the distributed object graph: local
    allocation and mutation, root management, remote invocation
    (through {!Rmi}) — plus bootstrap wiring used by topology builders
    to set up an initial graph "as if" the references had been
    exchanged earlier (it performs the same stub/scion bookkeeping the
    runtime would, with the handshakes already settled).

    Cross-process mutation is only possible through {!invoke} /
    {!call} behaviors, as in the real platform. *)

open Adgc_algebra

val alloc : Cluster.t -> proc:int -> ?fields:int -> ?payload:int -> unit -> Heap.obj

val add_root : Cluster.t -> Heap.obj -> unit

val remove_root : Cluster.t -> Heap.obj -> unit

val link : Cluster.t -> from_:Heap.obj -> to_:Heap.obj -> unit
(** Local reference [from_ -> to_]; both objects must live in the same
    process.
    @raise Invalid_argument otherwise — remote references cannot be
    forged locally. *)

val unlink : Cluster.t -> from_:Heap.obj -> to_:Heap.obj -> unit

val wire_remote : Cluster.t -> holder:Heap.obj -> target:Heap.obj -> unit
(** Bootstrap a remote reference [holder -> target] across processes:
    installs the field, the stub and a confirmed scion.  Equivalent to
    a completed earlier exchange; intended for initial topology
    construction, not for steady-state mutation. *)

val unwire_remote : Cluster.t -> holder:Heap.obj -> target:Heap.obj -> unit
(** Drop the field reference (stub/scion cleanup is left to the
    collectors, as with any dropped reference). *)

val invoke : Cluster.t -> src:int -> target:Oid.t -> unit
(** Fire-and-forget remote touch of [target]: bumps the invocation
    counters, runs no body.  This is the operation that defeats
    cycle detections racing the mutator. *)

val call :
  Cluster.t ->
  src:int ->
  target:Oid.t ->
  ?args:Oid.t list ->
  ?behavior:Runtime.behavior ->
  ?on_reply:(Oid.t list -> unit) ->
  unit ->
  unit
(** Full {!Rmi.call}. *)

(** {1 Ready-made behaviors} *)

val store_args : Runtime.behavior
(** The callee stores every argument reference into the invoked
    object's fields — the canonical way new remote references appear
    and the DGC picks up tracking them. *)

val return_field_refs : Runtime.behavior
(** The callee replies with every reference currently held by the
    invoked object (a "read" that leaks references back to the
    caller). *)
