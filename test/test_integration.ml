(* End-to-end integration tests on the assembled Sim, plus randomized
   safety/completeness properties: under arbitrary topologies, churn
   and loss the collector must never reclaim a live object, and once
   activity stops it must eventually reclaim all garbage. *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Stats = Adgc_util.Stats

let check = Alcotest.check

let mk_sim ?(n = 4) ?(seed = 42) ?(drop = 0.0) ?(detector = Config.Dcda) () =
  let config = Config.quick ~seed ~n_procs:n () in
  config.Config.net.Network.drop_prob <- drop;
  let config = { config with Config.detector } in
  let sim = Sim.create ~config () in
  let checker = Adgc_check.Oracle.install (Sim.cluster sim) in
  (sim, checker)

let test_sim_fig3_full_lifecycle () =
  let sim, checker = mk_sim () in
  let built = Topology.fig3 (Sim.cluster sim) in
  Sim.start sim;
  Sim.run_for sim 5_000;
  (* Rooted: everything intact. *)
  check Alcotest.int "all objects alive" 14 (Cluster.total_objects (Sim.cluster sim));
  Adgc_rt.Mutator.remove_root (Sim.cluster sim) (Topology.obj built "A");
  check Alcotest.bool "cleaned" true (Sim.run_until_clean ~max_time:300_000 sim);
  Scaffold.assert_safe checker;
  check Alcotest.bool "cycle was reported" true (Sim.reports sim <> [])

let test_sim_no_detector_leaks () =
  let sim, checker = mk_sim ~detector:Config.No_detector () in
  let _built = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 60_000;
  check Alcotest.int "cycle leaks without a detector" 3
    (Cluster.total_objects (Sim.cluster sim));
  Scaffold.assert_safe checker

let test_sim_backtrack_detector_cleans () =
  let sim, checker = mk_sim ~detector:Config.No_detector () in
  let _built = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  ignore (Detector_column.start Detector_column.Backtrack sim);
  check Alcotest.bool "cleaned by baseline" true (Sim.run_until_clean ~max_time:300_000 sim);
  Scaffold.assert_safe checker

let test_sim_mixed_garbage () =
  (* Hybrid + plain ring + rooted ring, all at once. *)
  let sim, checker = mk_sim ~n:6 () in
  let cluster = Sim.cluster sim in
  let _h = Topology.hybrid cluster in
  let _r = Topology.ring cluster ~procs:[ 3; 4; 5 ] in
  let live = Topology.rooted_ring cluster ~procs:[ 1; 3; 5 ] in
  Sim.start sim;
  Sim.run_for sim 100_000;
  Scaffold.assert_safe checker;
  check Alcotest.int "only the rooted ring remains" 3 (Cluster.total_objects cluster);
  check Alcotest.bool "the rooted ring is intact" true
    (Adgc_rt.Heap.mem (Cluster.proc cluster 1).Adgc_rt.Process.heap (Scaffold.oid live "n1_0"))

let test_sim_loss_resilience () =
  let sim, checker = mk_sim ~n:5 ~drop:0.15 ~seed:11 () in
  let _r1 = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2; 3; 4 ] in
  let _r2 = Topology.ring (Sim.cluster sim) ~procs:[ 0; 2; 4 ] in
  Sim.start sim;
  check Alcotest.bool "cleaned despite 15% loss" true
    (Sim.run_until_clean ~max_time:1_500_000 sim);
  Scaffold.assert_safe checker

let test_sim_partition_heals () =
  let sim, checker = mk_sim ~n:3 () in
  let cluster = Sim.cluster sim in
  let _r = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  (* Partition one direction of the ring's links. *)
  Network.block_link (Cluster.net cluster) (Adgc_algebra.Proc_id.of_int 1)
    (Adgc_algebra.Proc_id.of_int 2);
  Sim.start sim;
  Sim.run_for sim 50_000;
  check Alcotest.int "leaks while partitioned" 3 (Cluster.total_objects cluster);
  Network.unblock_link (Cluster.net cluster) (Adgc_algebra.Proc_id.of_int 1)
    (Adgc_algebra.Proc_id.of_int 2);
  check Alcotest.bool "cleans after heal" true (Sim.run_until_clean ~max_time:600_000 sim);
  Scaffold.assert_safe checker

(* The whole snapshot pipeline in a running system: every summary the
   store publishes (after its trip through the bytes on "disk") equals
   the independent per-scion reference computed from the process at
   that same instant, while churn keeps the heaps changing. *)
let test_snapshot_pipeline_matches_reference () =
  let sim, checker = mk_sim () in
  let cluster = Sim.cluster sim in
  let _g = Topology.ring cluster ~procs:[ 0; 1; 2; 3 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 0; 2 ] in
  let published = ref 0 in
  Adgc_snapshot.Snapshot_store.subscribe (Sim.store sim) (fun s ->
      incr published;
      let proc = Adgc_algebra.Proc_id.to_int (Adgc_snapshot.Summary.proc s) in
      let reference = Summary_reference.summary ~now:(Sim.now sim) (Cluster.proc cluster proc) in
      if Adgc_snapshot.Summary.bytes s <> Summary_reference.encode reference then
        Alcotest.failf "published summary of proc %d at %d differs from the reference" proc
          (Sim.now sim));
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 8) () in
  Churn.run churn ~steps:400 ~every:23;
  Sim.start sim;
  Sim.run_for sim 40_000;
  Scaffold.assert_safe checker;
  check Alcotest.bool "cleans up" true (Sim.run_until_clean ~max_time:1_000_000 sim);
  Scaffold.assert_safe checker;
  check Alcotest.bool "snapshots were published" true (!published > 0)

let test_sim_live_churn_is_never_hurt () =
  let sim, checker = mk_sim ~n:5 ~drop:0.05 ~seed:23 () in
  let cluster = Sim.cluster sim in
  let _live = Topology.rooted_ring ~objs_per_proc:2 cluster ~procs:[ 0; 1; 2; 3; 4 ] in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 55) () in
  Churn.run churn ~steps:1_500 ~every:31;
  Sim.start sim;
  Sim.run_for sim 80_000;
  Scaffold.assert_safe checker;
  (* After quiescence everything unreferenced goes away; live stays. *)
  check Alcotest.bool "cleaned" true (Sim.run_until_clean ~max_time:2_000_000 sim);
  Scaffold.assert_safe checker

let test_sim_detector_stats_flow () =
  let sim, _ = mk_sim () in
  let _r = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 30_000;
  let stats = Sim.stats sim in
  check Alcotest.bool "snapshots taken" true (Stats.get stats "snapshot.taken" > 0);
  check Alcotest.bool "detections started" true (Stats.get stats "dcda.detections_started" > 0);
  check Alcotest.bool "cycles found" true (Stats.get stats "dcda.cycles_found" > 0)

let test_sim_run_gc_cycle_manual () =
  let sim, _ = mk_sim () in
  let cluster = Sim.cluster sim in
  let a = Adgc_rt.Mutator.alloc cluster ~proc:0 () in
  ignore a;
  Scaffold.run_gc_cycle sim;
  (* No duty is installed, and the oracle's sweep is a daemon: the
     drain ends when the stub sets have landed. *)
  ignore (Cluster.drain cluster : int);
  check Alcotest.int "acyclic garbage gone" 0 (Cluster.total_objects cluster)

(* An oracle watching an idle cluster does not keep a drain going: its
   sweep still runs in time order with the rest, but once nothing else
   is queued the drain returns, having run nothing. *)
let test_oracle_lets_idle_cluster_drain () =
  let cluster = Cluster.create ~n:2 () in
  let checker = Adgc_check.Oracle.install cluster in
  check Alcotest.int "an idle drain runs nothing" 0 (Cluster.drain ~limit:1_000 cluster);
  (* A message in flight is waited for, with the sweeps that fall
     before it. *)
  Adgc_rt.Runtime.send (Cluster.rt cluster) ~src:(Adgc_algebra.Proc_id.of_int 0)
    ~dst:(Adgc_algebra.Proc_id.of_int 1)
    Adgc_rt.Msg.Scion_probe;
  let ran = Cluster.drain ~limit:1_000 cluster in
  check Alcotest.bool "the delivery ran, and the drain ended before its limit" true
    (ran > 0 && ran < 1_000);
  Scaffold.assert_safe checker;
  Cluster.teardown cluster

let test_sim_stop_stops () =
  let sim, _ = mk_sim () in
  Sim.start sim;
  Sim.run_for sim 5_000;
  Sim.stop sim;
  let before = Stats.get (Sim.stats sim) "lgc.runs" in
  Sim.run_for sim 20_000;
  check Alcotest.int "no more LGC runs" before (Stats.get (Sim.stats sim) "lgc.runs")

(* A fault-free run leaves no duplicate-suppression state behind: each
   link's seqs run 0, 1, 2, ... and every one is delivered, so every
   floor moves past all of them and no gap is left to hold. *)
let test_no_fault_run_holds_no_delivered_entries () =
  let sim, checker = mk_sim ~n:16 ~seed:5 () in
  let cluster = Sim.cluster sim in
  let rng = Adgc_util.Rng.create 31 in
  let _built =
    Topology.random cluster ~rng ~objects:400 ~edges:800 ~remote_prob:0.35 ~root_prob:0.15
  in
  let _rings = Topology.ring cluster ~procs:[ 0; 5; 10; 15 ] in
  Sim.start sim;
  check Alcotest.bool "cleaned" true (Sim.run_until_clean ~step:5_000 ~max_time:1_000_000 sim);
  Scaffold.assert_safe checker;
  (* Envelopes still in flight may have overtaken one another; let
     them land once the duties and the oracle's sweep are gone. *)
  Sim.teardown sim;
  ignore (Cluster.drain cluster : int);
  check Alcotest.bool "envelopes were deduplicated" true
    (Stats.get (Sim.stats sim) "net.msg.delivered" > 1_000);
  for i = 0 to Cluster.n_procs cluster - 1 do
    check Alcotest.int
      (Printf.sprintf "P%d holds no delivered entry" i)
      0
      (Adgc_rt.Process.delivered_count (Cluster.proc cluster i))
  done

(* ------------------------------------------------------------------ *)
(* Randomized end-to-end properties *)

(* One property run: random topology + churn + loss; after quiescence,
   no live object was ever reclaimed and all garbage is gone. *)
let random_scenario ~seed =
  let n = 3 + (seed mod 3) in
  let sim, checker = mk_sim ~n ~seed ~drop:(float_of_int (seed mod 3) *. 0.04) () in
  let cluster = Sim.cluster sim in
  let rng = Adgc_util.Rng.create (seed * 7 + 1) in
  let _built =
    Topology.random cluster ~rng ~objects:(30 + (seed mod 20)) ~edges:(60 + (seed mod 40))
      ~remote_prob:0.35 ~root_prob:0.15
  in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed + 100)) () in
  Churn.run churn ~steps:300 ~every:17;
  Sim.start sim;
  Sim.run_for sim 30_000;
  Scaffold.assert_safe checker;
  let clean = Sim.run_until_clean ~step:5_000 ~max_time:2_000_000 sim in
  Scaffold.assert_safe checker;
  if not clean then
    Alcotest.failf "seed %d: garbage remained (%d objects, %d garbage)" seed
      (Cluster.total_objects cluster) (Sim.garbage_count sim)

let test_extreme_jitter_reordering () =
  (* Latency 1..500 with 5% loss: heavy reordering across every
     protocol (stub sets out of order, CDMs overtaking each other,
     probes racing sets).  Still safe, still complete. *)
  let sim, checker = mk_sim ~n:6 ~seed:13 ~drop:0.05 () in
  let cluster = Sim.cluster sim in
  let net = Cluster.net cluster in
  (Network.config net).Network.latency_min <- 1;
  (Network.config net).Network.latency_max <- 500;
  let _g1 = Topology.ring cluster ~procs:[ 0; 1; 2; 3; 4; 5 ] in
  let _g2 = Topology.fig4 cluster in
  let live_ring = Topology.rooted_ring cluster ~procs:[ 1; 3 ] in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 5) () in
  Churn.run churn ~steps:500 ~every:29;
  Sim.start sim;
  Sim.run_for sim 50_000;
  Scaffold.assert_safe checker;
  check Alcotest.bool "cleans under jitter" true
    (Sim.run_until_clean ~step:5_000 ~max_time:3_000_000 sim);
  Scaffold.assert_safe checker;
  (* The churn population is live by construction; the seeded rooted
     ring must have survived within it. *)
  check Alcotest.bool "live ring intact" true
    (Adgc_rt.Heap.mem (Cluster.proc cluster 1).Adgc_rt.Process.heap (Scaffold.oid live_ring "n1_0"))

let test_web_workload_site_decommission () =
  (* The motivating WWW scenario: sites link each other, reciprocal
     links create distributed cycles; decommissioning sites (dropping
     their index roots) must eventually reclaim exactly their share. *)
  let sim, checker = mk_sim ~n:5 ~seed:17 () in
  let cluster = Sim.cluster sim in
  let built =
    Topology.web ~pages_per_site:6 ~cross_links:15 ~back_prob:0.6 cluster
      ~rng:(Adgc_util.Rng.create 3)
  in
  Sim.start sim;
  Sim.run_for sim 20_000;
  Scaffold.assert_safe checker;
  check Alcotest.int "all 30 pages alive" 30 (Cluster.total_objects cluster);
  (* Decommission sites 1 and 3. *)
  Adgc_rt.Mutator.remove_root cluster (Topology.obj built "s1_p0");
  Adgc_rt.Mutator.remove_root cluster (Topology.obj built "s3_p0");
  check Alcotest.bool "their garbage reclaimed" true
    (Sim.run_until_clean ~step:2_000 ~max_time:1_000_000 sim);
  Scaffold.assert_safe checker;
  (* Everything still reachable from the surviving sites is intact. *)
  let live = Scaffold.globally_live cluster in
  check Alcotest.int "survivors consistent" (Adgc_algebra.Oid.Set.cardinal live)
    (Cluster.total_objects cluster);
  List.iter
    (fun s ->
      check Alcotest.bool
        (Printf.sprintf "site %d index alive" s)
        true
        (Adgc_algebra.Oid.Set.mem (Scaffold.oid built (Printf.sprintf "s%d_p0" s)) live))
    [ 0; 2; 4 ]

let test_random_scenarios () =
  (* A swarm of deterministic random runs; each is an independent
     safety+completeness check. *)
  List.iter (fun seed -> random_scenario ~seed) [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_random_scenarios_slow () =
  List.iter (fun seed -> random_scenario ~seed) [ 9; 10; 11; 12; 13; 14; 15; 16; 17; 18 ]

let test_stress_large_system () =
  (* One big run: 12 processes, a dense random graph, heavy churn,
     moderate loss, two crashes — everything at once, still safe,
     still complete among the survivors. *)
  let config = Config.quick ~seed:99 ~n_procs:12 () in
  config.Config.net.Network.drop_prob <- 0.05;
  let runtime = { config.Config.runtime with Adgc_rt.Runtime.holder_silence_limit = Some 15_000 } in
  let config = { config with Config.runtime } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let checker = Adgc_check.Oracle.install cluster in
  let rng = Adgc_util.Rng.create 1234 in
  let _big =
    Topology.random cluster ~rng ~objects:300 ~edges:700 ~remote_prob:0.3 ~root_prob:0.1
  in
  let _web = Topology.web cluster ~rng ~pages_per_site:4 ~cross_links:30 in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create 77) () in
  Churn.run churn ~steps:2_000 ~every:19;
  Sim.start sim;
  Sim.run_for sim 20_000;
  Cluster.crash cluster 7;
  Sim.run_for sim 20_000;
  Cluster.crash cluster 11;
  Sim.run_for sim 40_000;
  (* Crash-stop may transiently orphan live-looking state, but never
     the other way around: safety holds throughout (note: the false
     suspicion window is avoided because crashed processes really are
     dead here). *)
  Scaffold.assert_safe checker;
  let clean = Sim.run_until_clean ~step:5_000 ~max_time:3_000_000 sim in
  Scaffold.assert_safe checker;
  check Alcotest.bool "stress run converges" true clean

let suite =
  ( "integration",
    [
      Alcotest.test_case "fig3 full lifecycle" `Quick test_sim_fig3_full_lifecycle;
      Alcotest.test_case "no detector: cycles leak" `Quick test_sim_no_detector_leaks;
      Alcotest.test_case "backtrack detector cleans" `Quick test_sim_backtrack_detector_cleans;
      Alcotest.test_case "mixed garbage" `Quick test_sim_mixed_garbage;
      Alcotest.test_case "15% loss resilience" `Quick test_sim_loss_resilience;
      Alcotest.test_case "partition then heal" `Quick test_sim_partition_heals;
      Alcotest.test_case "live churn never hurt" `Quick test_sim_live_churn_is_never_hurt;
      Alcotest.test_case "snapshot pipeline matches the reference" `Quick
        test_snapshot_pipeline_matches_reference;
      Alcotest.test_case "detector stats flow" `Quick test_sim_detector_stats_flow;
      Alcotest.test_case "manual gc cycle" `Quick test_sim_run_gc_cycle_manual;
      Alcotest.test_case "an oracle lets an idle cluster drain" `Quick
        test_oracle_lets_idle_cluster_drain;
      Alcotest.test_case "stop stops the timers" `Quick test_sim_stop_stops;
      Alcotest.test_case "no-fault run holds no delivered entry" `Quick
        test_no_fault_run_holds_no_delivered_entries;
      Alcotest.test_case "extreme jitter and reordering" `Quick test_extreme_jitter_reordering;
      Alcotest.test_case "web workload: site decommission" `Quick
        test_web_workload_site_decommission;
      Alcotest.test_case "random scenarios (safety+completeness)" `Quick test_random_scenarios;
      Alcotest.test_case "random scenarios, second batch" `Slow test_random_scenarios_slow;
      Alcotest.test_case "stress: everything at once" `Slow test_stress_large_system;
    ] )
