(** Imperative binary min-heap priority queue.

    Used as the event queue of the discrete-event scheduler.  Keys are
    compared with a user-supplied total order; ties are broken by
    insertion order (FIFO), which the scheduler relies on for
    deterministic same-timestamp delivery. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> ('k, 'v) t

val push : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int
(** Entries queued. *)

val peek : ('k, 'v) t -> ('k * 'v) option
(** Smallest key, without removing it. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the smallest key. Among equal keys, the one
    pushed first is returned first. *)
