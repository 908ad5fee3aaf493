(** Builders for the paper's figures and parametric graph families.

    Every builder works on a fresh cluster via the bootstrap wiring of
    {!Adgc_rt.Mutator} (fields + stubs + confirmed scions, as if the
    references had been exchanged earlier) and registers object names
    so traces read like the paper. *)

open Adgc_algebra
open Adgc_rt

type built = {
  names : Names.t;
  objects : (string * Heap.obj) list;
  cycle_refs : Ref_key.t list;
      (** the inter-process references making up the constructed
          garbage cycle(s), in traversal order where meaningful *)
}

val obj : built -> string -> Heap.obj
(** @raise Not_found for an unknown name. *)

val scion_key : built -> src:int -> string -> Ref_key.t
(** Key of the reference from process [src] to the named object. *)

(** {1 Paper figures} *)

val fig3 : Cluster.t -> built
(** Figure 3 (4 processes): the simple distributed garbage cycle
    [B_P1 -> F_P2 -> (J) -> Q_P4 -> (S) -> O_P3 -> (K) -> D_P1 -> ...]
    plus the locally rooted object [A_P1 -> C].  [A] is {e rooted} on
    return; remove its root to turn the cycle into garbage.  Needs
    [>= 4] processes. *)

val fig4 : Cluster.t -> built
(** Figure 4 (6 processes): two mutually-linked distributed cycles
    sharing the path [T_P4 -> D_P1 -> F_P2]; entirely garbage on
    return. *)

val fig5 : Cluster.t -> built
(** Figure 5 (>= 5 processes): the mutator-race scenario — cycle
    [F_P2 -> V_P5 -> T_P4 -> D_P1 -> F_P2] held reachable by
    [root -> A_P1 -> D -> F], plus the bystander objects [J_P2]
    (linked from [F]) and rooted [M_P3].  The race is then driven by
    the caller (see the [mutator_race] example and tests). *)

(** {1 Parametric families} *)

val ring : ?objs_per_proc:int -> Cluster.t -> procs:int list -> built
(** A distributed cycle spanning [procs] in order: a local chain of
    [objs_per_proc] objects (default 1) in each process, the last
    linking remotely to the first object in the next process, wrapping
    around.  Garbage on return. *)

val rooted_ring : ?objs_per_proc:int -> Cluster.t -> procs:int list -> built
(** Same, but the first object is rooted (a live cycle — the detector
    must never collect it). *)

val hybrid : Cluster.t -> built
(** Distributed cycle with an upstream acyclic chain pointing into it
    and a downstream acyclic tail hanging off it, across 3 processes:
    the classic "hybrid garbage" the acyclic collector reclaims only
    partially.  Everything is garbage on return. *)

val star_cycles : ?arms:int -> Cluster.t -> built
(** [arms] (default 4) distributed 2-cycles all sharing one hub object
    at process 0: every arm is a separate garbage cycle through the
    hub, so the hub's scions accumulate many converging dependencies —
    a stress test for [ScionsTo] bookkeeping and algebra growth.
    Entirely garbage on return; needs [>= arms + 1] processes. *)

val pairs : Cluster.t -> built
(** One independent two-party garbage cycle per process pair
    ((0,1), (2,3), ...), plus a rooted local object with a child on
    every process.  Nothing is shared between pairs, so crashing one
    rank leaves every other pair's cycle collectable — the workload
    the socket driver's crash tests assert survivor progress on.
    Needs [>= 2] processes; an odd last rank gets only live objects. *)

val lattice : Cluster.t -> rows:int -> cols:int -> built
(** A [rows x cols] grid of objects, one process per column; each node
    points right and down, and the last column points back to the
    first column of the same row (making every row a distributed
    cycle), while the downward edges chain the rows — overlapping
    cycles sharing structure.  Entirely garbage on return; needs
    [>= cols] processes. *)

val chain_into_ring :
  ?chain:int -> Cluster.t -> procs:int list -> built
(** A long acyclic chain ([chain] objects, default 16, spread over the
    processes round-robin and linked remotely) whose tail points into
    a distributed ring over [procs].  The classic upstream-garbage
    pattern: the acyclic collector eats the chain hop by hop while the
    detector handles the ring; the no-new-information rule is what
    keeps detections from looping on the not-yet-reclaimed chain. *)

val web :
  ?pages_per_site:int ->
  ?cross_links:int ->
  ?back_prob:float ->
  Cluster.t ->
  rng:Adgc_util.Rng.t ->
  built
(** A WWW-like object graph (the paper cites Richer & Shapiro: "in
    these systems, cycles are frequent").  Each process is a site with
    a chain of [pages_per_site] pages (default 8) rooted at its index
    page; [cross_links] (default [2 * sites]) random inter-site links,
    each reciprocated with probability [back_prob] (default 0.5) —
    reciprocal cross-site links are how distributed cycles arise on
    the web.  Dropping a site's index-page root turns its share of the
    link structure into (heavily cyclic) garbage. *)

val random :
  Cluster.t ->
  rng:Adgc_util.Rng.t ->
  objects:int ->
  edges:int ->
  remote_prob:float ->
  root_prob:float ->
  built
(** Random graph: [objects] spread round-robin over all processes,
    [edges] drawn uniformly (remote with [remote_prob], installed with
    bootstrap wiring), each object rooted with [root_prob].
    [cycle_refs] is empty (ground truth comes from
    {!Adgc_rt.Cluster.garbage}). *)
