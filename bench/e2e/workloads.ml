(* The four benchmark inputs.  Each is a fixed population built from
   the seed through public Mutator/Topology calls only (the program
   receives the generated heap, never the seed), collected until no
   garbage is left.  [mutator] alone adds an open-loop load: one
   [Churn.step] every [every] simulated ticks for [steps] steps,
   whatever the collector is doing.

   Where the workload allows it the {e shape} is fixed and only the
   placement is drawn from the seed: ring lengths and tree shapes are
   what set the slowest reclamation, so drawing them too would make the
   seed, not the program, decide the run's length.

   Why these four: each one puts a different layer on top of the
   ledger, and each has a partner on which that layer's change must
   show no effect (see README.md). *)

module Cluster = Adgc_rt.Cluster
module Mutator = Adgc_rt.Mutator
module Heap = Adgc_rt.Heap
module Topology = Adgc_workload.Topology
module Rng = Adgc_util.Rng

type size = Full | Smoke

type t = {
  name : string;
  procs : int;
  build : Cluster.t -> Rng.t -> unit;
  churn : (int * int) option;  (** [(steps, every)] of the open-loop mutator *)
}

(* [count] distributed rings with one object per process, ring [r]
   spanning [8 + r mod 24] consecutive processes (wrapping) from a
   random first one; every third ring is rooted.  Cycle detection does
   most of the work here. *)
let rings ~procs ~count cluster rng =
  for r = 0 to count - 1 do
    let span = Int.min procs (8 + (r mod 24)) in
    let first = Rng.int rng procs in
    let ring = List.init span (fun k -> (first + k) mod procs) in
    let build = if r mod 3 = 0 then Topology.rooted_ring else Topology.ring in
    ignore (build cluster ~procs:ring : Topology.built)
  done

(* [count] acyclic binary trees of [nodes] objects (node [k]'s parent
   is node [(k-1)/2]); every node lives on a random process, and an
   edge is remote exactly when the two owners differ.  Three trees in
   ten are rooted.  No cycles: reference listing and the local
   collectors do all the reclaiming. *)
let forest ~procs ~count ~nodes cluster rng =
  for t = 0 to count - 1 do
    let objs = Array.init nodes (fun _ -> Mutator.alloc cluster ~proc:(Rng.int rng procs) ()) in
    for k = 1 to nodes - 1 do
      let parent = objs.((k - 1) / 2) and child = objs.(k) in
      if Adgc_algebra.Oid.owner parent.Heap.oid = Adgc_algebra.Oid.owner child.Heap.oid then
        Mutator.link cluster ~from_:parent ~to_:child
      else Mutator.wire_remote cluster ~holder:parent ~target:child
    done;
    if t mod 10 < 3 then Mutator.add_root cluster objs.(0)
  done

let random ~objects cluster rng =
  ignore
    (Topology.random cluster ~rng ~objects ~edges:(2 * objects) ~remote_prob:0.35
       ~root_prob:0.15
      : Topology.built)

let all size =
  let full = size = Full in
  [
    (let procs = if full then 64 else 16 in
     {
       name = "rings";
       procs;
       build = rings ~procs ~count:(if full then 300 else 40);
       churn = None;
     });
    (let procs = if full then 32 else 8 in
     {
       name = "forest";
       procs;
       build = forest ~procs ~count:(if full then 1600 else 100) ~nodes:20;
       churn = None;
     });
    {
      name = "scale256";
      procs = (if full then 256 else 32);
      build = random ~objects:(if full then 30_000 else 1_500);
      churn = None;
    };
    {
      name = "mutator";
      procs = 16;
      build = random ~objects:(if full then 12_000 else 1_000);
      churn = Some ((if full then 4_000 else 400), 5);
    };
  ]

let names = List.map (fun w -> w.name) (all Full)

let find size name = List.find_opt (fun w -> w.name = name) (all size)
