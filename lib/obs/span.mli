(** Typed sim-time spans in a bounded ring.

    Like {!Adgc_util.Trace} but structured: every span has a kind, an
    optional parent, a start/end tick and string args, so a run can be
    exported as a Chrome [trace_event] timeline (see {!Export}).

    Spans are {e disabled by default}: when disabled, {!begin_span}
    returns {!none} without allocating, and every other operation on
    {!none} is a no-op, so instrumentation hooks cost one branch. *)

type kind =
  | Run  (** whole simulation run *)
  | Detection  (** one cycle detection, init to conclusion *)
  | Cdm_hop  (** one CDM network hop *)
  | Snapshot  (** one process snapshot *)
  | Lgc_sweep  (** one local GC trace+sweep *)
  | Batch_flush  (** one DGC batch envelope flush *)
  | Custom of string

val kind_name : kind -> string

type span = private {
  id : int;
  parent : int option;
  kind : kind;
  name : string;
  proc : int;  (** owning process, or -1 for cluster-wide spans *)
  start_time : int;
  mutable end_time : int option;  (** [None] while still open *)
  mutable args : (string * string) list;
}

type t

val create : unit -> t
(** Disabled until {!set_enabled}.  The ring keeps the newest 65536
    spans; its storage is allocated by the first span, so a run with
    telemetry off never pays for it. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val none : int
(** The id returned by {!begin_span} when disabled; always safe to
    pass to {!end_span}. *)

val begin_span : t -> time:int -> ?parent:int -> ?proc:int -> kind:kind -> string -> int
(** Open a span; returns its id ({!none} when disabled). *)

val end_span : t -> time:int -> ?args:(string * string) list -> int -> unit
(** Close an open span, appending [args].  Unknown or already-closed
    ids are ignored. *)

val event : t -> time:int -> ?parent:int -> ?proc:int -> ?args:(string * string) list -> kind:kind -> string -> int
(** A zero-duration span. *)

val spans : t -> span list
(** Oldest first; at most 65536, oldest evicted first. *)
