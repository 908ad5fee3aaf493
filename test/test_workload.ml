(* Tests for topology builders, ground truth, churn and metrics. *)

open Adgc_algebra
open Adgc_rt
module Topology = Adgc_workload.Topology
module Churn = Adgc_workload.Churn
module Metrics = Adgc_workload.Metrics
module Names = Adgc_workload.Names

let check = Alcotest.check

let test_fig3_shape () =
  let cluster = Cluster.create ~n:4 () in
  let built = Topology.fig3 cluster in
  check Alcotest.int "14 objects" 14 (Cluster.total_objects cluster);
  check Alcotest.int "4 cycle refs" 4 (List.length built.Topology.cycle_refs);
  (* With the root in place, only A and C are live... plus everything
     reachable: A -> C -> B -> F -> ... -> D -> C: actually the whole
     cycle is reachable through B.  Verify via ground truth. *)
  let live = Scaffold.globally_live cluster in
  check Alcotest.bool "A live" true (Oid.Set.mem (Scaffold.oid built "A") live);
  check Alcotest.bool "cycle live through B" true (Oid.Set.mem (Scaffold.oid built "F") live);
  (* Remove the root: everything dies. *)
  Mutator.remove_root cluster (Topology.obj built "A");
  check Alcotest.int "all garbage" 14 (Oid.Set.cardinal (Cluster.garbage cluster))

let test_fig3_summary_matches_paper () =
  (* The paper's summarized view of P2 (our index 1):
     Scion(F) -> StubsFrom = {Q}; Stub(Q) -> ScionsTo = {F}, not
     locally reachable. *)
  let cluster = Cluster.create ~n:4 () in
  let built = Topology.fig3 cluster in
  let summary = Adgc_snapshot.Summarize.run ~now:0 (Cluster.proc cluster 1) in
  let f_key = Topology.scion_key built ~src:0 "F" in
  (match Adgc_snapshot.Summary.find_scion summary f_key with
  | Some si ->
      check Alcotest.bool "StubsFrom = {Q}" true
        (Oid.Set.equal
           (Summary_reference.stubs_from summary si)
           (Oid.Set.singleton (Scaffold.oid built "Q")))
  | None -> Alcotest.fail "scion F missing");
  match Adgc_snapshot.Summary.find_stub summary (Scaffold.oid built "Q") with
  | Some st ->
      check Alcotest.bool "ScionsTo = {F}" true
        (Ref_key.Set.equal (Summary_reference.scions_to summary st) (Ref_key.Set.singleton f_key));
      check Alcotest.bool "Local.Reach = false" false
        (Adgc_snapshot.Summary.local_reach summary st)
  | None -> Alcotest.fail "stub Q missing"

let test_fig4_shape () =
  let cluster = Cluster.create ~n:6 () in
  let built = Topology.fig4 cluster in
  check Alcotest.int "8 objects" 8 (Cluster.total_objects cluster);
  check Alcotest.int "7 remote refs" 7 (List.length built.Topology.cycle_refs);
  check Alcotest.int "all garbage" 8 (Oid.Set.cardinal (Cluster.garbage cluster))

let test_fig5_shape () =
  let cluster = Cluster.create ~n:5 () in
  let built = Topology.fig5 cluster in
  let live = Scaffold.globally_live cluster in
  check Alcotest.bool "cycle live via A" true (Oid.Set.mem (Scaffold.oid built "F") live);
  check Alcotest.int "no garbage initially" 0 (Oid.Set.cardinal (Cluster.garbage cluster))

let test_ring_builder () =
  let cluster = Cluster.create ~n:4 () in
  let built = Topology.ring ~objs_per_proc:3 cluster ~procs:[ 0; 2; 3 ] in
  check Alcotest.int "9 objects" 9 (Cluster.total_objects cluster);
  check Alcotest.int "3 remote refs" 3 (List.length built.Topology.cycle_refs);
  check Alcotest.int "all garbage" 9 (Oid.Set.cardinal (Cluster.garbage cluster));
  (* Each remote ref's scion exists and is confirmed. *)
  List.iter
    (fun key ->
      let owner = Cluster.proc cluster (Proc_id.to_int (Ref_key.owner key)) in
      match Scaffold.find_scion owner.Process.scions key with
      | Some e -> check Alcotest.bool "confirmed" true e.Scion_table.confirmed
      | None -> Alcotest.fail "scion missing")
    built.Topology.cycle_refs

let test_ring_requires_two_procs () =
  let cluster = Cluster.create ~n:4 () in
  Alcotest.check_raises "singleton" (Invalid_argument "Topology.ring: need at least two processes")
    (fun () -> ignore (Topology.ring cluster ~procs:[ 0 ]))

let test_hybrid_shape () =
  let cluster = Cluster.create ~n:3 () in
  let _built = Topology.hybrid cluster in
  check Alcotest.int "7 objects" 7 (Cluster.total_objects cluster);
  check Alcotest.int "all garbage" 7 (Oid.Set.cardinal (Cluster.garbage cluster))

let test_random_builder_bounds () =
  let cluster = Cluster.create ~n:3 () in
  let rng = Adgc_util.Rng.create 5 in
  let _built =
    Topology.random cluster ~rng ~objects:50 ~edges:100 ~remote_prob:0.4 ~root_prob:0.2
  in
  check Alcotest.int "objects allocated" 50 (Cluster.total_objects cluster);
  let garbage = Oid.Set.cardinal (Cluster.garbage cluster) in
  check Alcotest.bool "garbage within bounds" true (garbage >= 0 && garbage <= 50)

let test_star_cycles_shape () =
  let cluster = Cluster.create ~n:5 () in
  let built = Topology.star_cycles ~arms:4 cluster in
  check Alcotest.int "hub + 4 arms" 5 (Cluster.total_objects cluster);
  check Alcotest.int "8 remote refs" 8 (List.length built.Topology.cycle_refs);
  check Alcotest.int "all garbage" 5 (Oid.Set.cardinal (Cluster.garbage cluster));
  (* The hub has one scion per arm: 4 converging dependencies. *)
  let p0 = Cluster.proc cluster 0 in
  let hub = Scaffold.oid built "hub" in
  let at_hub (e : Scion_table.entry) = Oid.equal e.Scion_table.key.Ref_key.target hub in
  check Alcotest.int "hub scions" 4
    (List.length (List.filter at_hub (Scion_table.entries p0.Process.scions)))

let test_lattice_shape () =
  let cluster = Cluster.create ~n:4 () in
  let built = Topology.lattice cluster ~rows:2 ~cols:4 in
  check Alcotest.int "8 nodes" 8 (Cluster.total_objects cluster);
  check Alcotest.int "8 remote refs (rows x cols rightward)" 8
    (List.length built.Topology.cycle_refs);
  check Alcotest.int "all garbage" 8 (Oid.Set.cardinal (Cluster.garbage cluster))

let test_chain_into_ring_shape () =
  let cluster = Cluster.create ~n:3 () in
  let built = Topology.chain_into_ring ~chain:9 cluster ~procs:[ 0; 1; 2 ] in
  check Alcotest.int "ring (3) + chain (9)" 12 (Cluster.total_objects cluster);
  check Alcotest.int "all garbage" 12 (Oid.Set.cardinal (Cluster.garbage cluster));
  (* Rooting the chain head keeps the ring alive through the tail. *)
  Mutator.add_root cluster (Topology.obj built "c0");
  check Alcotest.int "rooted chain holds everything" 0
    (Oid.Set.cardinal (Cluster.garbage cluster))

let test_names () =
  let cluster = Cluster.create ~n:4 () in
  let built = Topology.fig3 cluster in
  let names = built.Topology.names in
  let s = Format.asprintf "%a" (Names.pp_oid names) (Scaffold.oid built "F") in
  check Alcotest.string "pp" "F@P1" s

let test_in_flight_refs_are_live () =
  (* A reference travelling inside a message keeps its target globally
     live even when no heap object holds it. *)
  let cluster = Cluster.create ~n:2 () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  let precious = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster callee;
  Mutator.wire_remote cluster ~holder:caller ~target:callee;
  (* Ship [precious] (kept alive only by the in-flight message). *)
  Mutator.call cluster ~src:0 ~target:callee.Heap.oid ~args:[ precious.Heap.oid ]
    ~behavior:Mutator.store_args ();
  let live = Scaffold.globally_live cluster in
  check Alcotest.bool "in-flight arg live" true (Oid.Set.mem precious.Heap.oid live);
  ignore (Cluster.drain cluster : int)

let test_metrics_sample () =
  let cluster = Cluster.create ~n:3 () in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let s = Metrics.sample cluster in
  check Alcotest.int "objects" 3 s.Metrics.objects;
  check Alcotest.int "live" 0 s.Metrics.live;
  check Alcotest.int "garbage" 3 s.Metrics.garbage

let test_metrics_sampler () =
  let cluster = Cluster.create ~n:2 () in
  let sampler = Metrics.sample_every cluster ~period:100 in
  Cluster.run_for cluster 550;
  Metrics.stop_sampling sampler;
  Cluster.run_for cluster 500;
  check Alcotest.int "five samples" 5 (List.length (Metrics.samples sampler))

let test_safety_checker_catches_violation () =
  (* Deliberately delete a scion protecting a live object; the checker
     must record the violation when the LGC sweeps it. *)
  let cluster = Cluster.create ~n:2 () in
  let checker = Adgc_check.Oracle.install cluster in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  let p1 = Cluster.proc cluster 1 in
  ignore
    (Scion_table.delete p1.Process.scions
       (Ref_key.make ~src:(Proc_id.of_int 0) ~target:target.Heap.oid)
      : bool);
  ignore (Lgc.run (Cluster.rt cluster) p1 : Lgc.report);
  check Alcotest.int "violation recorded" 1 (List.length (Scaffold.live_reclaimed checker));
  match Scaffold.assert_safe checker with
  | () -> Alcotest.fail "assert_safe should raise"
  | exception Failure _ -> ()

let test_churn_only_touches_reachable () =
  (* Churn must never resurrect garbage: build a garbage ring next to a
     busy rooted population and verify the ring's ICs stay at 0. *)
  let cluster = Cluster.create ~n:3 () in
  let built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 0; 1; 2 ] in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 3) () in
  for _ = 1 to 500 do
    Churn.step churn
  done;
  ignore (Cluster.drain cluster : int);
  List.iter
    (fun key ->
      let owner = Cluster.proc cluster (Proc_id.to_int (Ref_key.owner key)) in
      match Scaffold.find_scion owner.Process.scions key with
      | Some e -> check Alcotest.int "garbage never invoked" 0 e.Scion_table.ic
      | None -> Alcotest.fail "scion missing")
    built.Topology.cycle_refs

let test_churn_generates_remote_activity () =
  let cluster = Cluster.create ~n:3 () in
  let _live = Topology.rooted_ring ~objs_per_proc:2 cluster ~procs:[ 0; 1; 2 ] in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 4) () in
  for _ = 1 to 800 do
    Churn.step churn
  done;
  ignore (Cluster.drain cluster : int);
  let stats = Cluster.stats cluster in
  check Alcotest.bool "rmi happened" true (Adgc_util.Stats.get stats "rmi.calls" > 10);
  check Alcotest.bool "exports happened" true
    (Adgc_util.Stats.get stats "dgc.scions.created" > 0)

let suite =
  ( "workload",
    [
      Alcotest.test_case "fig3 shape & ground truth" `Quick test_fig3_shape;
      Alcotest.test_case "fig3 summary matches paper" `Quick test_fig3_summary_matches_paper;
      Alcotest.test_case "fig4 shape" `Quick test_fig4_shape;
      Alcotest.test_case "fig5 shape" `Quick test_fig5_shape;
      Alcotest.test_case "ring builder" `Quick test_ring_builder;
      Alcotest.test_case "ring needs two procs" `Quick test_ring_requires_two_procs;
      Alcotest.test_case "hybrid shape" `Quick test_hybrid_shape;
      Alcotest.test_case "random builder bounds" `Quick test_random_builder_bounds;
      Alcotest.test_case "star cycles shape" `Quick test_star_cycles_shape;
      Alcotest.test_case "lattice shape" `Quick test_lattice_shape;
      Alcotest.test_case "chain into ring shape" `Quick test_chain_into_ring_shape;
      Alcotest.test_case "names" `Quick test_names;
      Alcotest.test_case "in-flight refs are live" `Quick test_in_flight_refs_are_live;
      Alcotest.test_case "metrics sample" `Quick test_metrics_sample;
      Alcotest.test_case "metrics sampler" `Quick test_metrics_sampler;
      Alcotest.test_case "safety checker catches violations" `Quick
        test_safety_checker_catches_violation;
      Alcotest.test_case "churn never touches garbage" `Quick test_churn_only_touches_reachable;
      Alcotest.test_case "churn generates remote activity" `Quick
        test_churn_generates_remote_activity;
    ] )
