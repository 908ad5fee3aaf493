(** Per-process object heap.

    Objects are records of reference slots (plus an opaque payload
    weight used by the serialization experiments).  A slot may hold a
    reference to a local object or to a remote one; remote references
    are installed only by the runtime's import machinery, which does
    the stub bookkeeping — the heap itself is policy-free.

    The heap also provides the tracing primitive shared by the local
    collector and the graph summarizer: a breadth-first walk from a
    set of starting objects that stays inside this process and
    reports, separately, the local objects visited and the remote
    references encountered.

    Tracing runs on a persistent dense index ({!Adgc_util.Dense}):
    every local object is interned once into a dense integer id, the
    visited set is an epoch-marked bitset cleared in O(1), and the BFS
    queue is a reused int array.  The index survives across traces —
    consecutive snapshots of a quiet heap allocate nothing — and is
    resynchronized lazily when the {!generation} counter shows the
    object population changed. *)

open Adgc_algebra

type obj = private {
  oid : Oid.t;
  mutable fields : Oid.t option array;
  mutable payload : int;  (** simulated data weight, in abstract bytes *)
}

type t

val create : owner:Proc_id.t -> t

val owner : t -> Proc_id.t

val size : t -> int
(** Number of objects currently allocated. *)

val generation : t -> int
(** Bumped whenever the object population changes (allocation or
    removal).  The dense tracer — and anything else caching per-object
    state — checks it to decide whether a resync is due.  Reference
    mutations do not bump it: the mutators patch the packed adjacency
    in place (see {!trace_dense}). *)

val mutations : t -> int
(** Monotonic counter bumped by {e every} reachability-relevant change
    to this heap: allocation, removal, field writes, reference edits
    and root set changes.  An unchanged counter guarantees this heap
    contributes the same reachability as last time. *)

val reclaim_mutations : t -> int
(** Monotonic counter bumped only by the mutation classes after which
    the set of garbage objects can {e shrink}: sweeps ({!remove}) and
    reattachments ({!add_ref}, {!add_root}, {!set_field} storing a
    reference).  Allocation, reference clears and root drops can only
    create garbage, never reclaim it, so they are excluded.
    {!Adgc.Sim.run_until_clean} folds this counter — not {!mutations}
    — into its staleness signature: an unchanged signature proves a
    cached nonzero garbage count cannot have dropped to zero, which is
    the only transition the clean-poll waits for. *)

val live_mutations : t -> int
(** Monotonic counter bumped by every mutation class that can change
    the {e globally-live} set: everything {!mutations} counts except
    removals ({!remove}).  A (safe) sweep only deletes garbage, which
    is by definition outside the live set, so while this counter (and
    its peers across the cluster, plus the in-flight message counters)
    stands still, a cached live-set answer remains exact — sweeps or
    not.  {!Adgc_rt.Cluster.live_among} keys its mark cache on this,
    which is what makes per-sweep safety checking affordable at
    scale. *)

(** {1 Allocation and mutation} *)

val alloc : ?fields:int -> ?payload:int -> t -> obj
(** Fresh object with [fields] empty slots (default 2) and payload
    weight (default 16). *)

val get : t -> Oid.t -> obj option

val get_exn : t -> Oid.t -> obj
(** @raise Invalid_argument when absent. *)

val mem : t -> Oid.t -> bool

val set_field : t -> obj -> int -> Oid.t option -> unit
(** @raise Invalid_argument on an out-of-range slot. *)

val add_ref : t -> obj -> Oid.t -> int
(** Store a reference in the first empty slot, growing the object if
    none is free; returns the slot index used. *)

val remove_ref : t -> obj -> Oid.t -> bool
(** Clear the first slot holding exactly this reference; [false] if
    not found. *)

val remove : t -> Oid.t -> unit
(** Used by the collector's sweep. *)

(** {1 Roots} *)

val add_root : t -> Oid.t -> unit
(** The object must be local to this heap. *)

val remove_root : t -> Oid.t -> unit

val is_root : t -> Oid.t -> bool

val roots : t -> Oid.t list

(** {1 Traversal} *)

val iter : t -> (obj -> unit) -> unit

val fold : t -> init:'a -> f:('a -> obj -> 'a) -> 'a

type trace_result = {
  local : Oid.Set.t;  (** local objects reached (including the starts that exist) *)
  remote : Oid.Set.t;  (** remote objects referenced from reached objects *)
}

val trace : t -> from:Oid.t list -> trace_result
(** Breadth-first reachability within this heap.  Starting points that
    are remote contribute (only) to the remote set; absent local
    starting points contribute nothing.  References to local oids that
    are absent from the heap (dangling, e.g. mid-sweep) are ignored. *)

val trace_all_remote : t -> from:Oid.t list -> Oid.Set.t
(** [ (trace t ~from).remote ] — convenience. *)

(** {1 Dense view}

    Low-level access to the persistent dense index for hot loops that
    want to replace [Oid.Tbl] lookups with array indexing (the
    condensed summarizer).  All accessors resynchronize lazily, so
    they are always coherent with the heap; dense ids are stable while
    the heap is unmutated, which is the lifetime such loops need. *)

val dense_sync : t -> int
(** Force a resync and return the dense capacity [n]: every live
    object has an id in [0, n) (some ids in that range may be dead —
    recently swept — slots). *)

val dense_id : t -> Oid.t -> int option
(** Dense id of a {e live} local object; [None] for remote, swept or
    unknown oids. *)

val dense_generation : t -> int
(** Bumped each time the dense interner is rebuilt (compaction after
    heavy sweeping): every dense id is reassigned then.  Between two
    equal readings taken after a {!dense_sync}, ids are append-only —
    existing ids keep naming the same objects — so per-id caches
    (the cluster's live marks) remain index-valid. *)

val dense_oid : t -> int -> Oid.t
(** Oid owning a dense id.
    @raise Invalid_argument when the id was never assigned. *)

val dense_obj : t -> int -> obj option
(** Live object behind a dense id; [None] for dead slots. *)

val iter_dense : t -> (int -> obj -> unit) -> unit
(** Every live object with its dense id, in id order. *)

val trace_dense :
  ?reset:bool ->
  t ->
  from:Oid.t list ->
  visit_local:(int -> unit) ->
  visit_remote:(Oid.t -> unit) ->
  unit
(** Callback form of {!trace}: reports each reached local object (by
    dense id) and each distinct remote reference exactly once, without
    building sets.  [visit_remote] fires during the walk,
    [visit_local] once the walk is complete.

    The walk itself runs over an int-packed adjacency mirror of the
    field arrays ({!Adgc_util.Dense.Csr}, maintained incrementally by
    the mutators), so the hot loop performs no hashing and no
    allocation.

    [reset] (default [true]) clears the visited marks first.  Passing
    [false] continues the previous walk's marks: already-visited
    objects and remote refs are skipped, and [visit_local] reports
    only the objects {e newly} reached by this call — how the global
    oracle runs its cross-process fixpoint without revisiting whole
    heaps each round.  Only valid while the heap is unmutated since
    the previous call (mutation may compact the dense ids the marks
    refer to). *)

val dense_words : t -> int
(** Approximate words held by the dense-trace machinery (slot/queue
    arrays, packed adjacency, mark bitsets) — the benchmarks' peak
    memory proxy.  Does not force a resync. *)
