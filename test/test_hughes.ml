(* Tests for the Hughes timestamp baseline: it collects distributed
   cycles on a healthy system, spares live ones, and — the property
   the paper builds its case on — stalls globally as soon as one
   process stops participating. *)

open Adgc_rt
open Adgc_workload
module Hughes = Adgc_baseline.Hughes
module Stats = Adgc_util.Stats

let check = Alcotest.check

(* Hughes runs on top of the acyclic DGC only (no DCDA). *)
let mk ?(n = 4) () =
  let config =
    {
      (Runtime.default_config ()) with
      Runtime.lgc_period = 300;
      new_set_period = 350;
      scion_grace = 3_000;
    }
  in
  let cluster = Cluster.create ~config ~n () in
  Adgc.Kernel.start cluster (Adgc.Kernel.gc_rows (Cluster.rt cluster));
  let hughes = Hughes.install ~round_period:200 cluster in
  (cluster, hughes)

let test_hughes_collects_garbage_ring () =
  let cluster, hughes = mk ~n:3 () in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for cluster 60_000;
  check Alcotest.int "ring reclaimed" 0 (Cluster.total_objects cluster);
  check Alcotest.bool "threshold advanced" true (Hughes.threshold hughes > 0);
  check Alcotest.bool "scions deleted by hughes" true
    (Stats.get (Cluster.stats cluster) "hughes.scions_deleted" >= 1)

let test_hughes_spares_live_ring () =
  let cluster, hughes = mk ~n:3 () in
  let _built = Topology.rooted_ring cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for cluster 60_000;
  check Alcotest.int "live ring intact" 3 (Cluster.total_objects cluster);
  check Alcotest.bool "threshold still advanced" true (Hughes.threshold hughes > 0)

let test_hughes_mixed () =
  let cluster, _hughes = mk ~n:4 () in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2; 3 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 0; 2 ] in
  Cluster.run_for cluster 80_000;
  check Alcotest.int "only live ring remains" 2 (Cluster.total_objects cluster)

let test_hughes_mutual_cycles () =
  let cluster, _hughes = mk ~n:6 () in
  let _built = Topology.fig4 cluster in
  Cluster.run_for cluster 100_000;
  check Alcotest.int "mutual cycles reclaimed" 0 (Cluster.total_objects cluster)

let test_hughes_stalls_on_silent_process () =
  (* The paper's criticism, measured: crash an UNRELATED process; the
     garbage ring among the survivors is never reclaimed because the
     global minimum cannot advance. *)
  let cluster, hughes = mk ~n:4 () in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Cluster.crash cluster 3;
  Cluster.run_for cluster 80_000;
  check Alcotest.int "garbage ring leaks" 3 (Cluster.total_objects cluster);
  check Alcotest.bool "coordinator stalled" true (Hughes.stalls hughes > 10);
  check Alcotest.int "threshold frozen" (-1) (Hughes.threshold hughes)

let test_dcda_does_not_stall_on_silent_process () =
  (* Control for the previous test: same scenario, DCDA instead of
     Hughes — the crash of an unrelated process changes nothing. *)
  let config = Adgc.Config.quick ~n_procs:4 () in
  let sim = Adgc.Sim.create ~config () in
  let cluster = Adgc.Sim.cluster sim in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Cluster.crash cluster 3;
  Adgc.Sim.start sim;
  check Alcotest.bool "DCDA reclaims regardless" true
    (Adgc.Sim.run_until_clean ~max_time:100_000 sim)

let test_hughes_stamps_advance_for_live () =
  let cluster, hughes = mk ~n:2 () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  let key = Adgc_algebra.Ref_key.make ~src:(Adgc_algebra.Proc_id.of_int 0) ~target:target.Heap.oid in
  Cluster.run_for cluster 5_000;
  let s1 = Hughes.scion_stamp hughes ~proc:1 key in
  Cluster.run_for cluster 5_000;
  let s2 = Hughes.scion_stamp hughes ~proc:1 key in
  match (s1, s2) with
  | Some a, Some b -> check Alcotest.bool "stamps refresh for live scions" true (b > a)
  | _ -> Alcotest.fail "stamps missing"

(* Hughes attaches from outside to a sim without a detector of its
   own, and the sim's teardown stops its rounds. *)
let test_hughes_on_plain_sim () =
  let config = { (Adgc.Config.quick ~n_procs:3 ()) with Adgc.Config.detector = Adgc.Config.No_detector } in
  let sim = Adgc.Sim.create ~config () in
  let _built = Topology.ring (Adgc.Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Adgc.Sim.start sim;
  let _hughes = Hughes.install (Adgc.Sim.cluster sim) in
  check Alcotest.bool "hughes cleans beside the acyclic collector" true
    (Adgc.Sim.run_until_clean ~max_time:300_000 sim);
  Adgc.Sim.teardown sim;
  let rounds = Stats.get (Adgc.Sim.stats sim) "hughes.rounds" in
  Adgc.Sim.run_for sim 5_000;
  check Alcotest.int "teardown stopped the rounds" rounds
    (Stats.get (Adgc.Sim.stats sim) "hughes.rounds");
  check Alcotest.int "no DCDA reports" 0 (List.length (Adgc.Sim.reports sim))

let suite =
  ( "hughes",
    [
      Alcotest.test_case "collects a garbage ring" `Quick test_hughes_collects_garbage_ring;
      Alcotest.test_case "spares a live ring" `Quick test_hughes_spares_live_ring;
      Alcotest.test_case "mixed live and garbage" `Quick test_hughes_mixed;
      Alcotest.test_case "mutual cycles" `Quick test_hughes_mutual_cycles;
      Alcotest.test_case "stalls when one process is silent" `Quick
        test_hughes_stalls_on_silent_process;
      Alcotest.test_case "DCDA control: no stall" `Quick test_dcda_does_not_stall_on_silent_process;
      Alcotest.test_case "live stamps keep advancing" `Quick test_hughes_stamps_advance_for_live;
      Alcotest.test_case "hughes on a plain sim" `Quick test_hughes_on_plain_sim;
    ] )
