(** Bounded in-memory event trace.

    Subsystems append one-line events tagged with a simulated
    timestamp and a topic; tests assert on the recorded sequence and
    examples replay it to print paper-style step traces (e.g. the
    algebra steps of the paper's Section 3).  The buffer is bounded so
    long benchmark runs cannot exhaust memory; when full, the oldest
    events are dropped. *)

type event = { time : int; topic : string; text : string }

type t

val create : unit -> t
(** Capacity: 65536 events; the ring is allocated when the first event
    is recorded. *)

val set_enabled : t -> bool -> unit
(** Disabling makes {!addf} a no-op (used by benchmarks). *)

val addf :
  t -> time:int -> topic:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant. The message is only rendered when the trace is
    enabled. *)

val events : t -> event list
(** Oldest first. *)

val by_topic : t -> string -> event list

val pp_event : Format.formatter -> event -> unit
