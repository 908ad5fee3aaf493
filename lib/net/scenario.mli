(** Deterministic workload specification shared by every driver.

    The socket driver never ships heap graphs over the wire: the
    coordinator and each node build the {e same} initial cluster state
    from this small spec (topology family, process count, seed,
    detector), relying on the builders' determinism — same spec, same
    oids, same edges, same roots, byte-for-byte.  The coordinator's
    replica therefore doubles as the ground-truth oracle input
    ({!expected}), and the conformance suite feeds the very same spec
    to the in-memory simulator.

    The workload is static once built: topologies use bootstrap wiring
    (no messages), and the socket driver runs no mutator churn, so
    global reachability never changes during a run. *)

open Adgc_algebra

type topology = Fig3 | Fig4 | Fig5 | Ring | Hybrid | Random | Star | Pairs | Lattice | Web | Chain

val topology_of_string : string -> topology option

val topology_to_string : topology -> string

val min_procs : topology -> int

val detector_of_string : string -> Adgc.Config.detector_kind option
(** ["dcda"] or ["none"]. *)

val detector_to_string : Adgc.Config.detector_kind -> string

type t = {
  topology : topology;
  procs : int;  (** raised to {!min_procs} at build time *)
  seed : int;
  detector : Adgc.Config.detector_kind;
  objects : int;  (** [Random] only *)
  edges : int;  (** [Random] only *)
}

val make :
  ?topology:topology ->
  ?procs:int ->
  ?seed:int ->
  ?detector:Adgc.Config.detector_kind ->
  ?objects:int ->
  ?edges:int ->
  unit ->
  t
(** Defaults: [Ring], 4 processes, seed 42, DCDA, 100 objects / 200
    edges. *)

val n_procs : t -> int
(** [max procs (min_procs topology)] — what [build] actually creates. *)

val build_topology : t -> Adgc_rt.Cluster.t -> Adgc_workload.Topology.built
(** Build the topology on a cluster, applying each figure's
    garbage-making root removal. *)

val build : ?telemetry:bool -> t -> Adgc.Sim.t * Adgc_workload.Topology.built
(** Build the simulator (quick periods, chosen detector) and the
    topology, applying each figure's garbage-making root removal. *)

type expected = { live : Oid.Set.t; garbage : Oid.Set.t }

val expected : t -> expected
(** Ground truth from a throwaway replica: build, trace, tear down. *)

val garbage_excluding : t -> dead:int list -> Oid.Set.t
(** The garbage a run with those ranks crashed can still be expected
    to reclaim: [expected.garbage] minus every undirected garbage
    component containing an object owned by a dead rank — a cycle
    through a crashed process is undetectable without
    failure-detection leases, so it is floating, not a liveness
    failure. *)
