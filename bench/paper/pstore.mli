(** Paged persistent object store (one per process, optional).

    The paper's introduction motivates complete DGC with persistent
    distributed stores: retained garbage is not just disk space —
    "storage management, object loading on primary memory, object
    marshalling, etc. suffer performance degradations with the extra
    load imposed by the increase of garbage."  This substrate makes
    that measurable: each object is either {e resident} or {e on
    disk}; touching a non-resident object costs a load, and residency
    is bounded by a capacity with LRU eviction.  A local collection
    ({!collect}) touches every object it traces, so a heap bloated with
    garbage thrashes the store — experiment E17.

    The store tracks residency and IO counts only; object contents
    stay in the heap (the simulator's single address space).  Loads
    cost no simulated time — they are reported as counters, the
    standard proxy when the paper's platform gives no IO model. *)

open Adgc_algebra
open Adgc_rt

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) — resident objects before eviction. *)

val collect : t -> Runtime.t -> Process.t -> Lgc.report
(** One {!Lgc.run} on a process whose objects live in this store,
    reported as the trace's accesses: every survivor (after a sweep,
    exactly the reached set) is touched once, in ascending oid order,
    then the swept objects are forgotten. *)

val touch : t -> Oid.t -> unit
(** Access one object: a hit if resident, otherwise a load (evicting
    the least recently used resident if at capacity). *)

val forget : t -> Oid.t -> unit
(** The object was reclaimed: drop it from the store. *)

val resident : t -> Oid.t -> bool

val resident_count : t -> int

val loads : t -> int
(** Total loads performed (the IO cost proxy). *)

val hits : t -> int

val evictions : t -> int

val reset_counters : t -> unit
