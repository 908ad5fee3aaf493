(* Sim-level API tests: assembly, accessors, timer lifecycle, manual
   driving, and pretty-printer coverage for the public value types. *)

open Adgc_algebra
open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Heap = Adgc_rt.Heap
module Msg = Adgc_rt.Msg
module Mutator = Adgc_rt.Mutator
module Network = Adgc_rt.Network
module Runtime = Adgc_rt.Runtime
module Faults = Adgc_rt.Faults
module Snapshot_store = Adgc_snapshot.Snapshot_store
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
module Stats = Adgc_util.Stats

let check = Alcotest.check

let test_accessor_mismatch_raises () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  ignore (Sim.detector sim 0 : Adgc_dcda.Detector.t);
  let config = { (Config.quick ()) with Config.detector = Config.No_detector } in
  let sim = Sim.create ~config () in
  Alcotest.check_raises "detector on a sim without one"
    (Invalid_argument "Sim.detector: not running the DCDA") (fun () ->
      ignore (Sim.detector sim 0))

let test_start_is_idempotent () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  Sim.start sim;
  Sim.start sim;
  Sim.run_for sim 2_000;
  let runs = Adgc_util.Stats.get (Sim.stats sim) "lgc.runs" in
  (* 4 procs, period 300, 2000 ticks -> ~6 runs each; double timers
     would show ~2x. *)
  check Alcotest.bool "single set of timers" true (runs <= 4 * 7)

let test_stop_then_restart () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  Sim.start sim;
  Sim.run_for sim 1_000;
  Sim.stop sim;
  let frozen = Adgc_util.Stats.get (Sim.stats sim) "snapshot.taken" in
  Sim.run_for sim 5_000;
  check Alcotest.int "no snapshots while stopped" frozen
    (Adgc_util.Stats.get (Sim.stats sim) "snapshot.taken");
  Sim.start sim;
  Sim.run_for sim 2_000;
  check Alcotest.bool "resumed" true
    (Adgc_util.Stats.get (Sim.stats sim) "snapshot.taken" > frozen)

(* A lane another component registered first must not stand in for
   the sim's own duty table. *)
let test_foreign_lane_does_not_suppress_start () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  Adgc.Kernel.start (Sim.cluster sim) [ { Adgc.Kernel.name = "foreign"; period = 100; run = ignore } ];
  Sim.start sim;
  Sim.run_for sim 5_000;
  check Alcotest.bool "lgc ran" true (Stats.get (Sim.stats sim) "lgc.runs" > 0);
  check Alcotest.bool "snapshots taken" true (Stats.get (Sim.stats sim) "snapshot.taken" > 0)

(* Nothing reads a plain sim's event trace, so it records nothing. *)
let test_plain_run_records_no_trace () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  ignore (Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] : Topology.built);
  Sim.start sim;
  check Alcotest.bool "the ring is reclaimed" true (Sim.run_until_clean ~max_time:300_000 sim);
  check Alcotest.bool "cycles were found" true (Sim.reports sim <> []);
  check Alcotest.int "no trace events" 0 (List.length (Adgc_util.Trace.events (Sim.trace sim)));
  Sim.teardown sim

let test_scan_all_counts () =
  let sim = Sim.create ~config:(Config.quick ~n_procs:3 ()) () in
  let _r = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.run_for sim 1_000;
  Sim.snapshot_all sim;
  let started = Sim.scan_all sim in
  (* One candidate scion per process. *)
  check Alcotest.int "three detections" 3 started

let test_reports_sorted_by_time () =
  let sim = Sim.create ~config:(Config.quick ~n_procs:6 ()) () in
  let _r1 = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1 ] in
  let _r2 = Topology.ring (Sim.cluster sim) ~procs:[ 2; 3 ] in
  let _r3 = Topology.ring (Sim.cluster sim) ~procs:[ 4; 5 ] in
  Sim.start sim;
  Sim.run_for sim 30_000;
  let times = List.map (fun r -> r.Adgc_dcda.Report.concluded_time) (Sim.reports sim) in
  check Alcotest.bool "some reports" true (times <> []);
  check Alcotest.bool "sorted" true (List.sort compare times = times)

let test_live_oids_matches_ground_truth () =
  let sim = Sim.create ~config:(Config.quick ~n_procs:3 ()) () in
  let built = Topology.rooted_ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  let live = Sim.live_oids sim in
  check Alcotest.int "three live" 3 (Oid.Set.cardinal live);
  check Alcotest.bool "contains the root" true
    (Oid.Set.mem (Topology.oid built "n0_0") live)

(* ------------------------------------------------------------------ *)
(* Pretty-printer coverage for public value types *)

let test_pp_coverage () =
  let oid = Oid.make ~owner:(Proc_id.of_int 2) ~serial:7 in
  check Alcotest.string "oid" "#7@P2" (Oid.to_string oid);
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:oid in
  check Alcotest.string "ref" "P1->#7@P2" (Ref_key.to_string key);
  let alg = Algebra.add_exn Algebra.empty Algebra.Source key ~ic:3 in
  check Alcotest.string "algebra" "{{P1->#7@P2:3} -> {}}" (Algebra.to_string alg);
  let id = Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:9 in
  let cdm = Cdm.make ~id ~algebra:alg ~frontier:key ~hops:2 ~budget:8 in
  let s = Format.asprintf "%a" Cdm.pp cdm in
  check Alcotest.bool "cdm pp mentions id" true
    (Astring_contains.contains s "D9@P1")

let test_report_span () =
  let oid p s = Oid.make ~owner:(Proc_id.of_int p) ~serial:s in
  let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target in
  let report =
    {
      Adgc_dcda.Report.id = Detection_id.make ~initiator:(Proc_id.of_int 0) ~seq:0;
      concluded_at = Proc_id.of_int 0;
      concluded_time = 0;
      proven = [ key 0 (oid 1 0); key 1 (oid 2 0); key 2 (oid 0 0) ];
      hops = 3;
      deleted_here = [];
      lineage = [];
    }
  in
  check Alcotest.int "span 3" 3 (Adgc_dcda.Report.span report)

let test_inspect_summary_line () =
  let cluster = Cluster.create ~n:2 () in
  let _r = Topology.rooted_ring cluster ~procs:[ 0; 1 ] in
  let line = Inspect.summary_line cluster in
  check Alcotest.bool "mentions objects" true (Astring_contains.contains line "objects=2");
  check Alcotest.bool "mentions garbage" true (Astring_contains.contains line "garbage=0")

let test_teardown_detaches_observers () =
  let config = { (Config.quick ~n_procs:3 ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let oracle = Adgc_check.Oracle.install cluster in
  let sampler = Metrics.sample_every cluster ~period:500 in
  let _r = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 3_000;
  check Alcotest.bool "sampling while running" true (Metrics.sampling sampler);
  check Alcotest.bool "oracle running" false (Adgc_check.Oracle.stopped oracle);
  Sim.teardown sim;
  check Alcotest.bool "cluster torn down" true (Cluster.torn_down cluster);
  check Alcotest.bool "oracle auto-stopped" true (Adgc_check.Oracle.stopped oracle);
  check Alcotest.bool "sampler auto-detached" false (Metrics.sampling sampler);
  (* Driving the scheduler past teardown must not fire detached
     observers (this used to raise from the sampler's timer). *)
  let n_samples = List.length (Metrics.samples sampler) in
  Sim.run_for sim 5_000;
  check Alcotest.int "no further samples" n_samples (List.length (Metrics.samples sampler));
  (* All of these are idempotent, in any order. *)
  Sim.teardown sim;
  Adgc_check.Oracle.stop oracle;
  Metrics.stop_sampling sampler;
  check Alcotest.bool "still torn down" true (Cluster.torn_down cluster);
  (* Teardown closed the run span (exactly one, exactly once). *)
  let spans = Adgc_obs.Span.spans (Sim.obs sim) in
  match List.filter (fun s -> s.Adgc_obs.Span.kind = Adgc_obs.Span.Run) spans with
  | [ r ] -> check Alcotest.bool "run span closed" true (r.Adgc_obs.Span.end_time <> None)
  | runs -> Alcotest.failf "expected one run span, got %d" (List.length runs)

(* ---------------------------------------------------------------- *)
(* The in-flight-reply race (satellite of the shared-tracer move): an
   RMI reply's [target] is routing metadata — it is never imported on
   delivery — so the one ground-truth tracer must not count it live,
   while the reply's [results] genuinely travel and must stay
   pinned. *)

let test_inflight_reply_target_not_pinned () =
  let config = Config.quick ~n_procs:2 () in
  config.Config.net.Network.delivery <- Network.Manual;
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let target = Mutator.alloc cluster ~proc:1 () in
  let result = Mutator.alloc cluster ~proc:1 () in
  let payload =
    Msg.Rmi_reply { req_id = 0; target = target.Heap.oid; results = [ result.Heap.oid ] }
  in
  Runtime.send (Sim.rt sim) ~src:(Proc_id.of_int 1) ~dst:(Proc_id.of_int 0) payload;
  check Alcotest.int "reply parked in flight" 1 (Network.in_flight_count (Sim.net sim));
  let live = Cluster.globally_live cluster in
  check Alcotest.bool "in-flight results are live" true (Oid.Set.mem result.Heap.oid live);
  check Alcotest.bool "in-flight reply target is not" false
    (Oid.Set.mem target.Heap.oid live);
  (* The refinement is real: the raw payload walk does list the
     target, so an unrefined tracer would wrongly pin it. *)
  check Alcotest.bool "naive walk would pin it" true
    (List.mem target.Heap.oid (Msg.payload_refs payload));
  Sim.teardown sim

(* ---------------------------------------------------------------- *)
(* Staleness guard on the clean poll *)

let test_clean_poll_skips_when_quiet () =
  (* No timers, one garbage object, nothing ever moves: the first
     poll computes, every later poll is a signature hit. *)
  let sim = Sim.create ~config:(Config.quick ~n_procs:2 ()) () in
  let cluster = Sim.cluster sim in
  let _garbage = Mutator.alloc cluster ~proc:0 () in
  check Alcotest.bool "never becomes clean" false
    (Sim.run_until_clean ~step:100 ~max_time:1_000 sim);
  check Alcotest.int "one real trace" 1 (Stats.get (Sim.stats sim) "sim.clean_checks");
  check Alcotest.bool "quiet polls skipped" true
    (Stats.get (Sim.stats sim) "sim.clean_checks.skipped" >= 5);
  Sim.teardown sim

let test_clean_poll_stays_correct () =
  (* With live timers the guard must not change the verdict: the ring
     is collected and the poll reports clean. *)
  let sim = Sim.create ~config:(Config.quick ~n_procs:4 ()) () in
  let _ = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2; 3 ] in
  Sim.start sim;
  check Alcotest.bool "converges to clean" true
    (Sim.run_until_clean ~step:1_000 ~max_time:300_000 sim);
  check Alcotest.int "clean means clean" 0 (Sim.garbage_count sim);
  check Alcotest.bool "guard engaged" true
    (Stats.get (Sim.stats sim) "sim.clean_checks" >= 1);
  Sim.teardown sim

(* ---------------------------------------------------------------- *)
(* The bulk rounds: [snapshot_all], [scan_all] and [run_gc_cycle] are
   plain loops in process order, so interleaving them with the
   periodic timers must stay a pure function of the seed. *)

let bulk_round_life detector config =
  let sim = Sim.create ~config:(Detector_column.config detector config) () in
  let cluster = Sim.cluster sim in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 2; 3; 4; 5 ] in
  let _deep = Topology.chain_into_ring cluster ~procs:[ 1; 3; 5 ] in
  let bts = Detector_column.start detector sim in
  for _ = 1 to 4 do
    Sim.run_for sim 1_500;
    Sim.snapshot_all sim;
    ignore (Detector_column.scan_all sim bts : int);
    Sim.run_gc_cycle sim
  done;
  Sim.teardown sim;
  let metrics = Json.to_string (Export.metrics_document (Sim.stats sim)) in
  (metrics, Export.span_digest (Sim.obs sim))

let test_bulk_rounds_replay () =
  List.iter
    (fun detector ->
      List.iter
        (fun (fault_name, faulty) ->
          List.iter
            (fun seed ->
              let config () =
                let c = Config.quick ~seed ~n_procs:6 () in
                let faults =
                  if faulty then
                    Faults.plan_of_profile ~start:1_000 ~stop:4_000 ~n_procs:6 Faults.Loss_burst
                  else Faults.none
                in
                { c with Config.faults }
              in
              let case =
                Printf.sprintf "%s/%s/seed%d" (Detector_column.name detector) fault_name seed
              in
              let m1, d1 = bulk_round_life detector (config ()) in
              let m2, d2 = bulk_round_life detector (config ()) in
              check Alcotest.string (case ^ ": metrics document") m1 m2;
              check Alcotest.string (case ^ ": span digest") d1 d2)
            [ 7; 21 ])
        [ ("clean", false); ("loss-burst", true) ])
    Detector_column.all

let test_snapshot_all_publishes_each () =
  let n_procs = 4 in
  let sim = Sim.create ~config:(Config.quick ~n_procs ()) () in
  let _ = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.run_for sim 500;
  let store = Sim.store sim in
  check Alcotest.int "nothing published yet" 0 (Stats.get (Sim.stats sim) "snapshot.taken");
  ignore (Snapshot_store.take store (Cluster.proc (Sim.cluster sim) 0) : Adgc_snapshot.Summary.t);
  check Alcotest.int "take publishes exactly once" 1
    (Stats.get (Sim.stats sim) "snapshot.taken");
  check Alcotest.bool "P1 not yet published" true
    (Snapshot_store.latest store (Proc_id.of_int 1) = None);
  Sim.snapshot_all sim;
  check Alcotest.int "one more per process" (1 + n_procs)
    (Stats.get (Sim.stats sim) "snapshot.taken");
  for i = 0 to n_procs - 1 do
    check Alcotest.bool
      (Printf.sprintf "P%d published" i)
      true
      (Snapshot_store.latest store (Proc_id.of_int i) <> None)
  done;
  Sim.teardown sim

let test_manual_gc_cycles_reclaim () =
  (* No periodic timers: only the bulk rounds drive collection, with
     [run_for] delivering the messages they send. *)
  let sim = Sim.create ~config:(Config.quick ~n_procs:4 ()) () in
  let cluster = Sim.cluster sim in
  let garbage = Topology.ring cluster ~procs:[ 0; 1; 2; 3 ] in
  let live = Topology.rooted_ring cluster ~procs:[ 1; 3 ] in
  let present (b : Topology.built) =
    List.filter
      (fun (_, (o : Heap.obj)) ->
        let p = Cluster.proc cluster (Proc_id.to_int (Oid.owner o.Heap.oid)) in
        Heap.mem p.Adgc_rt.Process.heap o.Heap.oid)
      b.Topology.objects
    |> List.length
  in
  let rounds = ref 0 in
  while present garbage > 0 && !rounds < 50 do
    incr rounds;
    Sim.snapshot_all sim;
    ignore (Sim.scan_all sim : int);
    Sim.run_for sim 2_000;
    Sim.run_gc_cycle sim;
    Sim.run_for sim 2_000
  done;
  check Alcotest.int "garbage ring reclaimed" 0 (present garbage);
  check Alcotest.int "rooted ring intact" (List.length live.Topology.objects) (present live);
  check Alcotest.int "no garbage left" 0 (Sim.garbage_count sim);
  Sim.teardown sim

(* ------------------------------------------------------------------ *)
(* One duty table drives both timed drivers.  Over five periods of the
   slowest row on 4 ranks, [Sim.start] (lanes over every rank) and the
   socket node's per-rank installer fire each duty equally often on
   every rank, and as often as the table's phase and period say. *)

module Kernel = Adgc.Kernel

let horizon = 10_000

let expected_firings ~n (row : Kernel.row) i =
  let phase = Kernel.phase ~n row i in
  if phase > horizon then 0 else 1 + ((horizon - phase) / row.Kernel.period)

(* The real entry points, one rank at a time: every other rank is
   crashed, so the per-firing counters are that rank's alone. *)
let isolated_counters ~rank install =
  let sim = Sim.create ~config:(Config.quick ()) () in
  for i = 0 to 3 do
    if i <> rank then Cluster.crash (Sim.cluster sim) i
  done;
  install sim;
  Sim.run_for sim horizon;
  let stats = Sim.stats sim in
  List.map (fun k -> (k, Stats.get stats k)) [ "lgc.runs"; "snapshot.taken" ]

(* The shared installer, with every row counting its own firings. *)
let row_counts install =
  let config = Config.quick () in
  let sim = Sim.create ~config () in
  let counts = Hashtbl.create 32 in
  let rows =
    List.map
      (fun (row : Kernel.row) ->
        {
          row with
          Kernel.run =
            (fun i ->
              let key = (row.Kernel.name, i) in
              Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
              row.Kernel.run i);
        })
      (Kernel.schedule (Sim.kernel_ctx sim) ~policy:config.Config.policy)
  in
  install sim rows;
  Sim.run_for sim horizon;
  List.concat_map
    (fun (row : Kernel.row) ->
      List.init 4 (fun i ->
          let key = (row.Kernel.name, i) in
          (key, Option.value ~default:0 (Hashtbl.find_opt counts key))))
    rows

let test_one_duty_table () =
  let counts = Alcotest.(list (pair (pair string int) int)) in
  let lanes = row_counts (fun sim rows -> Kernel.start (Sim.cluster sim) rows) in
  let per_rank =
    row_counts (fun sim rows ->
        for rank = 0 to 3 do
          Kernel.start ~rank (Sim.cluster sim) rows
        done)
  in
  check counts "per-rank installer fires like the lanes" lanes per_rank;
  let config = Config.quick () in
  let rows = Kernel.schedule (Sim.kernel_ctx (Sim.create ~config ())) ~policy:config.Config.policy in
  check Alcotest.(list string) "the duty table's rows"
    [ "lgc"; "sets"; "snapshot"; "scan" ]
    (List.map (fun (row : Kernel.row) -> row.Kernel.name) rows);
  check counts "lanes fire as the table says"
    (List.concat_map
       (fun (row : Kernel.row) ->
         List.init 4 (fun i -> ((row.Kernel.name, i), expected_firings ~n:4 row i)))
       rows)
    lanes;
  for rank = 0 to 3 do
    let sim_start = isolated_counters ~rank Sim.start in
    let node = isolated_counters ~rank (fun sim -> Adgc_net.Node.install_duties sim rank) in
    check Alcotest.(list (pair string int)) (Printf.sprintf "rank %d: Sim.start = node" rank)
      sim_start node;
    let lgc = List.find (fun (r : Kernel.row) -> r.Kernel.name = "lgc") rows in
    check Alcotest.int (Printf.sprintf "rank %d: lgc runs" rank) (expected_firings ~n:4 lgc rank)
      (List.assoc "lgc.runs" sim_start)
  done

(* [Maintain_candidates] stays only as a name; running it changes no
   counter and starts nothing, where the [Scan] duty on the same state
   starts one detection per process. *)
let test_maintain_candidates_is_inert () =
  let sim = Sim.create ~config:(Config.quick ~n_procs:3 ()) () in
  let _r = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.run_for sim 1_000;
  Sim.snapshot_all sim;
  let ctx = Sim.kernel_ctx sim in
  let started () = Stats.get (Sim.stats sim) "dcda.detections_started" in
  let before = Stats.counters (Sim.stats sim) in
  for i = 0 to 2 do
    Kernel.run_duty ctx (Kernel.Maintain_candidates i)
  done;
  check
    Alcotest.(list (pair string int))
    "no counter moved" before
    (Stats.counters (Sim.stats sim));
  for i = 0 to 2 do
    Kernel.run_duty ctx (Kernel.Scan i)
  done;
  check Alcotest.int "the scan duty starts them" 3 (started ())

(* The scan duty reads what the snapshot duty published for that
   process, and nothing before it. *)
let test_scan_duty_reads_the_snapshot_duty () =
  let sim = Sim.create ~config:(Config.quick ~n_procs:3 ()) () in
  let _r = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.run_for sim 1_000;
  let ctx = Sim.kernel_ctx sim in
  let started i = Adgc_dcda.Detector.detections_started (Sim.detector sim i) in
  Kernel.run_duty ctx (Kernel.Scan 0);
  check Alcotest.int "no publish, no detection" 0 (started 0);
  Kernel.run_duty ctx (Kernel.Snapshot 0);
  check Alcotest.bool "the snapshot duty published P0's summary" true
    (Option.is_some (Adgc_dcda.Detector.summary (Sim.detector sim 0)));
  check Alcotest.bool "and no other process's" true
    (Option.is_none (Adgc_dcda.Detector.summary (Sim.detector sim 1)));
  Kernel.run_duty ctx (Kernel.Scan 0);
  Kernel.run_duty ctx (Kernel.Scan 1);
  check Alcotest.int "P0 scans its published candidate" 1 (started 0);
  check Alcotest.int "P1 has none published" 0 (started 1)

let suite =
  ( "sim",
    [
      Alcotest.test_case "accessor mismatch raises" `Quick test_accessor_mismatch_raises;
      Alcotest.test_case "start is idempotent" `Quick test_start_is_idempotent;
      Alcotest.test_case "stop then restart" `Quick test_stop_then_restart;
      Alcotest.test_case "scan_all counts" `Quick test_scan_all_counts;
      Alcotest.test_case "reports sorted by time" `Quick test_reports_sorted_by_time;
      Alcotest.test_case "live_oids ground truth" `Quick test_live_oids_matches_ground_truth;
      Alcotest.test_case "pretty-printer coverage" `Quick test_pp_coverage;
      Alcotest.test_case "report span" `Quick test_report_span;
      Alcotest.test_case "inspect summary line" `Quick test_inspect_summary_line;
      Alcotest.test_case "teardown detaches oracle and sampler" `Quick
        test_teardown_detaches_observers;
      Alcotest.test_case "in-flight reply target is not pinned" `Quick
        test_inflight_reply_target_not_pinned;
      Alcotest.test_case "clean poll skips when quiet" `Quick test_clean_poll_skips_when_quiet;
      Alcotest.test_case "clean poll stays correct" `Quick test_clean_poll_stays_correct;
      Alcotest.test_case "bulk rounds replay byte-identically" `Quick test_bulk_rounds_replay;
      Alcotest.test_case "snapshot_all publishes every process" `Quick
        test_snapshot_all_publishes_each;
      Alcotest.test_case "manual gc cycles reclaim a ring" `Quick test_manual_gc_cycles_reclaim;
      Alcotest.test_case "one duty table: Sim.start = node installer" `Quick test_one_duty_table;
      Alcotest.test_case "Maintain_candidates is inert" `Quick test_maintain_candidates_is_inert;
      Alcotest.test_case "the scan duty reads the snapshot duty" `Quick
        test_scan_duty_reads_the_snapshot_duty;
      Alcotest.test_case "a foreign lane does not suppress Sim.start" `Quick
        test_foreign_lane_does_not_suppress_start;
      Alcotest.test_case "a plain run records no trace events" `Quick
        test_plain_run_records_no_trace;
    ] )
