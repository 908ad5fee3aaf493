(* The fault matrix: every adversarial delivery regime × seeds ×
   detectors, each cell driven through the whole-system oracle.

   Each cell builds a garbage distributed cycle (the detector's job),
   a rooted cycle (the safety bait — reclaiming any of it is a bug)
   and application churn, then runs with the regime's fault plan
   active until its quiescence point.  Safety must hold throughout —
   the oracle checks ground truth at every sweep and the structural
   invariants every window — and once faults stop, everything that is
   garbage at that instant must actually be reclaimed (liveness).

   A failing cell prints its (profile, detector, seed) triple, which
   together with the plan replays the identical run. *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Runtime = Adgc_rt.Runtime
module Faults = Adgc_rt.Faults
module Heap = Adgc_rt.Heap
module Oid = Adgc_algebra.Oid
module Oracle = Adgc_check.Oracle
module Stats = Adgc_util.Stats
module Rng = Adgc_util.Rng

let check = Alcotest.check

let seeds = [ 11; 23; 47 ]

let fault_start = 4_000

let fault_stop = 18_000

let live_ring_intact cluster (built : Topology.built) =
  List.for_all
    (fun (_, (obj : Heap.obj)) ->
      let p = Cluster.proc cluster (Adgc_algebra.Proc_id.to_int (Oid.owner obj.Heap.oid)) in
      Heap.mem p.Adgc_rt.Process.heap obj.Heap.oid)
    built.Topology.objects

let with_window (config : Config.t) = function
  | None -> config
  | Some dgc_window ->
      { config with Config.runtime = { config.Config.runtime with Runtime.dgc_window } }

let run_cell ~profile ~detector ?dgc_window ~seed () =
  let n_procs = 4 in
  let faults = Faults.plan_of_profile ~start:fault_start ~stop:fault_stop ~n_procs profile in
  let config = Detector_column.config detector (Config.quick ~seed ~n_procs ()) in
  let config = with_window { config with Config.faults } dgc_window in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let oracle = Oracle.install ~window:500 cluster in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2; 3 ] in
  (* Safety bait: a rooted cycle the detector must leave alone.  The
     churn may legitimately unroot it mid-run (making it genuine
     garbage), so the arbiter of "was anything live reclaimed" is the
     oracle's ground-truth pre-sweep check, not a final presence
     assertion — see test_duplicate_reorder_combined for the
     churn-free version of that. *)
  let _live = Topology.rooted_ring cluster ~procs:[ 0; 2 ] in
  let churn = Churn.create ~cluster ~rng:(Rng.create (seed + 9)) () in
  (* 150 actions, one every 47 ticks: the workload quiesces (~7k)
     well before the faults do, so the liveness baseline is stable. *)
  Churn.run churn ~steps:150 ~every:47;
  ignore (Detector_column.start detector sim);
  Sim.run_for sim (fault_stop + 2_000);
  Scaffold.oracle_safe oracle;
  (match profile with
  | Faults.Duplicate ->
      Alcotest.(check bool)
        "duplicates were delivered and ignored" true
        (Stats.get (Sim.stats sim) "net.msg.duplicate_ignored" > 0)
  | Faults.Loss_burst | Faults.Reorder | Faults.Partition_heal | Faults.Crash_restart -> ());
  (* Fault quiescence: everything garbage now must go away. *)
  (match Scaffold.check_liveness ~step:2_000 ~max_ticks:900_000 cluster ~run:(Sim.run_for sim) with
  | Scaffold.Converged _ -> ()
  | Scaffold.Stuck _ as l ->
      Alcotest.failf "liveness after %s/%s/seed%d: %a" (Faults.profile_name profile)
        (Detector_column.name detector) seed Scaffold.pp_liveness l);
  Oracle.stop oracle;
  Scaffold.oracle_safe oracle;
  if dgc_window = Some 0 then
    check Alcotest.int "every control payload left unbatched" 0
      (Stats.get (Sim.stats sim) "net.msg.batch_flushes")

(* The acceptance scenario spelled out: duplication and reordering at
   once, replayed envelopes visibly suppressed, zero reclamations of
   anything live. *)
let test_duplicate_reorder_combined () =
  let n_procs = 4 in
  let dup_reorder =
    {
      Faults.none with
      Faults.default_link =
        { Faults.default_link with duplicate_prob = 0.3; reorder_prob = 0.5; reorder_skew = 200 };
      link_faults_until = Some fault_stop;
    }
  in
  let config = Config.quick ~seed:7 ~n_procs () in
  let config = { config with Config.faults = dup_reorder } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let oracle = Oracle.install cluster in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let live = Topology.rooted_ring cluster ~procs:[ 1; 3 ] in
  Sim.start sim;
  Sim.run_for sim (fault_stop + 2_000);
  let stats = Sim.stats sim in
  Alcotest.(check bool) "duplicates manufactured" true (Stats.get stats "net.msg.duplicated" > 0);
  Alcotest.(check bool)
    "replays suppressed" true
    (Stats.get stats "net.msg.duplicate_ignored" > 0);
  Alcotest.(check bool) "reordering happened" true (Stats.get stats "net.msg.reordered" > 0);
  (match Scaffold.check_liveness ~max_ticks:600_000 cluster ~run:(Sim.run_for sim) with
  | Scaffold.Converged _ -> ()
  | Scaffold.Stuck _ as l -> Alcotest.failf "liveness: %a" Scaffold.pp_liveness l);
  Oracle.stop oracle;
  Scaffold.oracle_safe oracle;
  check Alcotest.bool "live ring intact" true (live_ring_intact cluster live)

(* Partition bookkeeping: the scheduled cut drops cross-half traffic
   while it lasts, the heal restores it, and the stats record both. *)
let test_partition_stats () =
  let n_procs = 4 in
  let faults = Faults.plan_of_profile ~start:1_000 ~stop:5_000 ~n_procs Faults.Partition_heal in
  let config = Config.quick ~seed:3 ~n_procs () in
  let config = { config with Config.faults } in
  let sim = Sim.create ~config () in
  let _g = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2; 3 ] in
  Sim.start sim;
  Sim.run_for sim 20_000;
  let stats = Sim.stats sim in
  check Alcotest.int "partition armed" 1 (Stats.get stats "net.partitions");
  check Alcotest.int "partition healed" 1 (Stats.get stats "net.heals");
  Alcotest.(check bool)
    "cut traffic was dropped" true
    (Stats.get stats "net.msg.dropped.partition" > 0)

(* Crash with batch queues open: with a window wider than the gap
   between duty rounds, process 0 is killed at the first tick after
   [fault_start] at which its queues still hold stub sets or CDMs.
   Those payloads die with it (crash-stop at the flush), safety must
   hold throughout, and once it restarts everything garbage must
   still be reclaimed.  The live ring runs through process 0, so it
   keeps sending stub sets for as long as the run lasts. *)
let test_crash_with_open_queues () =
  let n_procs = 4 in
  let config = with_window (Config.quick ~seed:13 ~n_procs ()) (Some 400) in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let oracle = Oracle.install ~window:500 cluster in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2; 3 ] in
  let live = Topology.rooted_ring cluster ~procs:[ 0; 2 ] in
  let sched = Cluster.sched cluster in
  let crashed = ref false in
  let rec crash_when_queued () =
    if Hashtbl.length (Cluster.proc cluster 0).Adgc_rt.Process.pending_batches > 0 then begin
      crashed := true;
      Cluster.crash cluster 0
    end
    else if Adgc_rt.Scheduler.now sched < fault_stop then
      Adgc_rt.Scheduler.schedule_after sched ~delay:1 crash_when_queued
  in
  Adgc_rt.Scheduler.schedule_after sched ~delay:fault_start crash_when_queued;
  Adgc_rt.Scheduler.schedule_after sched ~delay:fault_stop (fun () -> Cluster.restart cluster 0);
  Sim.start sim;
  Sim.run_for sim (fault_stop + 2_000);
  Scaffold.oracle_safe oracle;
  Alcotest.(check bool) "the crash met open queues" true !crashed;
  Alcotest.(check bool)
    "their flushes met a dead endpoint" true
    (Stats.get (Sim.stats sim) "net.msg.dead_endpoint" > 0);
  (match Scaffold.check_liveness ~step:2_000 ~max_ticks:900_000 cluster ~run:(Sim.run_for sim) with
  | Scaffold.Converged _ -> ()
  | Scaffold.Stuck _ as l -> Alcotest.failf "liveness after crash: %a" Scaffold.pp_liveness l);
  Oracle.stop oracle;
  Scaffold.oracle_safe oracle;
  check Alcotest.bool "live ring intact" true (live_ring_intact cluster live)

let suite =
  (* Three columns: the DCDA with its control traffic batched (the
     default window) and synchronous (window 0: every stub set and CDM
     leaves as its own message, so each fault regime hits single
     payloads rather than whole batches), and the backtracking
     baseline. *)
  let columns =
    [
      ("dcda", Detector_column.Dcda, None);
      ("dcda+sync", Detector_column.Dcda, Some 0);
      ("backtrack", Detector_column.Backtrack, None);
    ]
  in
  let cells =
    List.concat_map
      (fun (pname, profile) ->
        List.concat_map
          (fun (cname, detector, dgc_window) ->
            List.map
              (fun seed ->
                Alcotest.test_case
                  (Printf.sprintf "%s via %s, seed %d" pname cname seed)
                  `Slow
                  (run_cell ~profile ~detector ?dgc_window ~seed))
              seeds)
          columns)
      (List.map
         (fun p -> (Faults.profile_name p, p))
         Faults.[ Loss_burst; Duplicate; Reorder; Partition_heal; Crash_restart ])
  in
  ( "faults-matrix",
    cells
    @ [
        Alcotest.test_case "duplicate+reorder shows suppression" `Quick
          test_duplicate_reorder_combined;
        Alcotest.test_case "partition cut and heal accounted" `Quick test_partition_stats;
        Alcotest.test_case "crash with batch queues open recovers" `Slow
          test_crash_with_open_queues;
      ] )
