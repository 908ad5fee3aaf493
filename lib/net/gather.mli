(** Ground-truth collection for the socket driver.

    In the in-memory drivers the oracle is omniscient: it reads every
    heap directly.  Across OS processes nobody has that view, so each
    node serializes its {e authoritative} state — its own process's
    heap, stub and scion tables plus the objects it reclaimed — and
    the coordinator reassembles the cluster-wide ground truth and runs
    {!Adgc_check.Invariant.structural} over it, the same function the
    in-memory drivers run.

    The workload is frozen once the run starts (topologies are built
    deterministically before [Start]; the mutator never runs under the
    socket driver), so reachability is a static property: the expected
    live and garbage sets computed on a replica {e before} the run are
    exact for the whole run.  That turns the oracle into set algebra —
    everything reclaimed must come from [expected_garbage], everything
    in [expected_garbage] (owned by a surviving node) must eventually
    be reclaimed — plus the structural invariants over the gathered
    final state. *)

open Adgc_algebra

type object_state = { oid : Oid.t; refs : Oid.t list; rooted : bool }

type stub_state = { target : Oid.t; stub_ic : int }

type scion_state = { key : Ref_key.t; scion_ic : int; confirmed : bool }

type node_state = {
  rank : int;
  tick : int;  (** the node's simulated clock at capture time *)
  objects : object_state list;
  stubs : stub_state list;
  scions : scion_state list;
  reclaimed : Oid.t list;  (** every object this node's LGC swept, in sweep order *)
  counters : (string * int) list;  (** the node's {!Adgc_util.Stats} counters *)
}

val capture :
  rt:Adgc_rt.Runtime.t -> rank:int -> tick:int -> reclaimed:Oid.t list -> node_state
(** Snapshot the state this node is authoritative for: process
    [rank]'s heap, tables and stats. *)

val emit : node_state Adgc_serial.Net_codec.shape
(** Wire representation, after {!Envelope.emit}'s run: five packed
    runs.  [[rank; tick]] and then each object as
    [[owner; serial; rooted; n; n refs...]]; the stubs as
    [[owner; serial; stub_ic]]; the scions as
    [[src; owner; serial; scion_ic; confirmed]]; the reclaimed ids;
    and the counters' values, each counter's name following that run
    as a string.  Flags are 0 or 1.
    @raise Invalid_argument on a negative field. *)

val read : Adgc_serial.Net_codec.Read.t -> node_state
(** Reads {!emit}'s bytes back.  Malformed: a run that is not whole
    entries, an object whose count of refs overruns its run, a flag
    other than 0 or 1, and a counter without its name. *)

(** {1 The gathered-state oracle} *)

type verdict = {
  violations : Adgc_check.Invariant.violation list;
      (** every [Live_reclaimed], then the structural violations *)
  live : Oid.Set.t;  (** reachability closure over the gathered heaps *)
  reclaimed : Oid.Set.t;  (** union of every node's reclaimed set *)
  unreclaimed : Oid.Set.t;
      (** expected garbage owned by a surviving node and still
          unreclaimed — liveness debt; empty at convergence *)
}

val check :
  expected_live:Oid.Set.t ->
  expected_garbage:Oid.Set.t ->
  ?dead:int list ->
  node_state list ->
  verdict
(** Run the invariants over the gathered states.  [dead] ranks follow
    the in-memory oracle's crash-stop semantics: their state is
    wreckage — absent from the gather, excluded from roots, references
    into them unjudged, their garbage owed by nobody.

    Checked here: [Live_reclaimed] (a reclaimed object is in
    [expected_live]).  The structural invariants come from
    {!Adgc_check.Invariant.structural} over a view of the states, in
    which an object is live when the closure over the gathered heaps
    reaches it. *)

val clean : verdict -> bool
(** No violations — the safety half only; liveness is [unreclaimed]. *)

val pp_verdict : Format.formatter -> verdict -> unit
