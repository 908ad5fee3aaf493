open Adgc_algebra
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Topology = Adgc_workload.Topology

type topology = Fig3 | Fig4 | Fig5 | Ring | Hybrid | Random | Star | Pairs | Lattice | Web | Chain

let topology_of_string = function
  | "fig3" -> Some Fig3
  | "fig4" -> Some Fig4
  | "fig5" -> Some Fig5
  | "ring" -> Some Ring
  | "hybrid" -> Some Hybrid
  | "random" -> Some Random
  | "star" -> Some Star
  | "pairs" -> Some Pairs
  | "lattice" -> Some Lattice
  | "web" -> Some Web
  | "chain" -> Some Chain
  | _ -> None

let topology_to_string = function
  | Fig3 -> "fig3"
  | Fig4 -> "fig4"
  | Fig5 -> "fig5"
  | Ring -> "ring"
  | Hybrid -> "hybrid"
  | Random -> "random"
  | Star -> "star"
  | Pairs -> "pairs"
  | Lattice -> "lattice"
  | Web -> "web"
  | Chain -> "chain"

let detector_of_string = function
  | "dcda" -> Some Config.Dcda
  | "none" -> Some Config.No_detector
  | _ -> None

let detector_to_string = function Config.Dcda -> "dcda" | Config.No_detector -> "none"

let min_procs = function
  | Fig3 -> 4
  | Fig4 -> 6
  | Fig5 -> 5
  | Ring -> 2
  | Hybrid -> 3
  | Random -> 2
  | Star -> 4
  | Pairs -> 2
  | Lattice -> 3
  | Web -> 2
  | Chain -> 2

type t = {
  topology : topology;
  procs : int;
  seed : int;
  detector : Config.detector_kind;
  objects : int;
  edges : int;
}

let make ?(topology = Ring) ?(procs = 4) ?(seed = 42) ?(detector = Config.Dcda)
    ?(objects = 100) ?(edges = 200) () =
  { topology; procs; seed; detector; objects; edges }

let n_procs t = Int.max t.procs (min_procs t.topology)

let build_topology t cluster =
  let seed = t.seed in
  match t.topology with
  | Fig3 ->
      let built = Topology.fig3 cluster in
      (* The figure's cycle is garbage once A's root goes. *)
      Adgc_rt.Mutator.remove_root cluster (Topology.obj built "A");
      built
  | Fig4 -> Topology.fig4 cluster
  | Fig5 ->
      let built = Topology.fig5 cluster in
      Adgc_rt.Mutator.remove_root cluster (Topology.obj built "A");
      built
  | Ring ->
      Topology.ring ~objs_per_proc:2 cluster
        ~procs:(List.init (Cluster.n_procs cluster) (fun i -> i))
  | Hybrid -> Topology.hybrid cluster
  | Random ->
      Topology.random cluster
        ~rng:(Adgc_util.Rng.create (seed + 1))
        ~objects:t.objects ~edges:t.edges ~remote_prob:0.35 ~root_prob:0.15
  | Star -> Topology.star_cycles ~arms:(Cluster.n_procs cluster - 1) cluster
  | Pairs -> Topology.pairs cluster
  | Lattice -> Topology.lattice cluster ~rows:3 ~cols:(Cluster.n_procs cluster)
  | Web -> Topology.web cluster ~rng:(Adgc_util.Rng.create (seed + 1))
  | Chain ->
      Topology.chain_into_ring cluster
        ~procs:(List.init (Cluster.n_procs cluster) (fun i -> i))

let build ?(telemetry = false) t =
  let config = Config.quick ~seed:t.seed ~n_procs:(n_procs t) () in
  let config = { config with Config.detector = t.detector; telemetry } in
  let sim = Sim.create ~config () in
  let built = build_topology t (Sim.cluster sim) in
  (sim, built)

type expected = { live : Oid.Set.t; garbage : Oid.Set.t }

let expected t =
  let sim, _built = build t in
  let cluster = Sim.cluster sim in
  let garbage = Cluster.garbage cluster in
  let live =
    Array.fold_left
      (fun acc (p : Adgc_rt.Process.t) ->
        Adgc_rt.Heap.fold p.Adgc_rt.Process.heap ~init:acc ~f:(fun acc (o : Adgc_rt.Heap.obj) ->
            if Oid.Set.mem o.oid garbage then acc else Oid.Set.add o.oid acc))
      Oid.Set.empty (Sim.rt sim).Adgc_rt.Runtime.procs
  in
  Sim.teardown sim;
  { live; garbage }

let garbage_excluding t ~dead =
  let sim, _built = build t in
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let garbage = Cluster.garbage cluster in
  (* Undirected adjacency within the garbage set: a garbage component
     is reclaimable only if every participant can still run the
     protocol, so any component touching a dead rank is dropped. *)
  let adj : Oid.t list Oid.Tbl.t = Oid.Tbl.create 256 in
  let edge a b =
    Oid.Tbl.replace adj a (b :: (try Oid.Tbl.find adj a with Not_found -> []));
    Oid.Tbl.replace adj b (a :: (try Oid.Tbl.find adj b with Not_found -> []))
  in
  Array.iter
    (fun (p : Adgc_rt.Process.t) ->
      Adgc_rt.Heap.fold p.Adgc_rt.Process.heap ~init:() ~f:(fun () (o : Adgc_rt.Heap.obj) ->
          if Oid.Set.mem o.oid garbage then
            Array.iter
              (function
                | Some r when Oid.Set.mem r garbage -> edge o.oid r
                | Some _ | None -> ())
              o.fields))
    rt.Adgc_rt.Runtime.procs;
  let dead_rank r = List.mem (Proc_id.to_int (Oid.owner r)) dead in
  let excluded = ref Oid.Set.empty in
  let queue = Queue.create () in
  Oid.Set.iter (fun o -> if dead_rank o then Queue.add o queue) garbage;
  while not (Queue.is_empty queue) do
    let o = Queue.pop queue in
    if not (Oid.Set.mem o !excluded) then begin
      excluded := Oid.Set.add o !excluded;
      List.iter (fun n -> Queue.add n queue) (try Oid.Tbl.find adj o with Not_found -> [])
    end
  done;
  Sim.teardown sim;
  Oid.Set.diff garbage !excluded
