(** Discrete-event scheduler.

    Simulated time is an integer tick count (think microseconds).
    Events scheduled for the same tick run in scheduling (FIFO) order,
    so a run is fully determined by the seed that drove the latency
    draws. *)

type t

val create : unit -> t

val now : t -> int

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** [time] must not be in the past. *)

val schedule_after : t -> delay:int -> (unit -> unit) -> unit
(** Non-negative delay. *)

val run_until : t -> time:int -> unit
(** Execute every event with timestamp [<= time], then advance the
    clock to [time] even if idle earlier. *)

val run_for : t -> delay:int -> unit

val drain : ?limit:int -> t -> int
(** Run events until the queue holds nothing but {!daemon} events or
    [limit] events have run (default 10 million, a runaway guard);
    returns the number executed. *)

type recurring

val every :
  t -> ?phase:int -> period:int -> (unit -> unit) -> recurring
(** Install a recurring event: first firing at [now + phase] (default:
    one full period), then every [period] ticks until cancelled. *)

val daemon : t -> period:int -> (unit -> unit) -> recurring
(** {!every} with its first firing one period out, as a daemon: it
    runs in time order with every other event, but {!drain} does not
    wait for it, so an observer that sweeps forever still lets an idle
    system drain. *)

val cancel : recurring -> unit

type lane

val lane :
  t -> n:int -> phase_of:(int -> int) -> period:int -> (int -> unit) -> lane
(** One periodic duty shared by [n] members through a {e single}
    scheduler event: member [i] first fires at [now + phase_of i] and
    every [period] ticks after, exactly as [n] separate {!every}
    handles would, but the global event queue holds one entry per lane
    instead of one per member — the sharded-scheduler layout that
    keeps 1k+ process cliques from drowning the queue.  Members due at
    the same tick run in FIFO order of their previous firing. *)

val cancel_lane : lane -> unit
