open Adgc_algebra
open Adgc_rt
module Detector = Adgc_dcda.Detector
module Snapshot_store = Adgc_snapshot.Snapshot_store

type t = {
  config : Config.t;
  cluster : Cluster.t;
  store : Snapshot_store.t;
  detectors : Detector.t array;  (* one per process; empty under [No_detector] *)
  mutable duties : bool;  (* [start] installed the duty table and no [stop] followed *)
}

let create ~config () =
  let cluster =
    Cluster.create ~seed:config.Config.seed ~config:config.Config.runtime
      ~net_config:config.Config.net ~faults:config.Config.faults
      ~telemetry:config.Config.telemetry ~n:config.Config.n_procs ()
  in
  let rt = Cluster.rt cluster in
  let store = Snapshot_store.create rt in
  let detectors =
    match config.Config.detector with
    | Config.Dcda ->
        let arr =
          Array.map (fun p -> Detector.attach rt p ~policy:config.Config.policy) rt.Runtime.procs
        in
        Snapshot_store.subscribe store (fun summary ->
            let i = Proc_id.to_int (Adgc_snapshot.Summary.proc summary) in
            Detector.set_summary arr.(i) summary);
        arr
    | Config.No_detector -> [||]
  in
  { config; cluster; store; detectors; duties = false }

let config t = t.config

let cluster t = t.cluster

let rt t = Cluster.rt t.cluster

let net t = Cluster.net t.cluster

let store t = t.store

let detector t i =
  if Array.length t.detectors = 0 then invalid_arg "Sim.detector: not running the DCDA"
  else t.detectors.(i)

let stats t = Cluster.stats t.cluster

let trace t = Cluster.trace t.cluster

let now t = Cluster.now t.cluster

let run_for t delay = Cluster.run_for t.cluster delay

let snapshot_all t = Snapshot_store.take_all t.store

let kernel_ctx t = { Kernel.rt = rt t; store = t.store; detectors = t.detectors }

let scan_all t = Array.fold_left (fun acc d -> acc + Detector.scan d) 0 t.detectors

let start t =
  if not t.duties then begin
    t.duties <- true;
    Kernel.start t.cluster (Kernel.schedule (kernel_ctx t) ~policy:t.config.Config.policy)
  end

let stop t =
  t.duties <- false;
  Cluster.stop_gc t.cluster

let teardown t =
  stop t;
  Cluster.teardown t.cluster

let obs t = Cluster.obs t.cluster

let lineage t = Cluster.lineage t.cluster

let reports t =
  Array.to_list t.detectors
  |> List.concat_map Detector.reports
  |> List.sort (fun a b ->
         Int.compare a.Adgc_dcda.Report.concluded_time b.Adgc_dcda.Report.concluded_time)

let garbage_count t = Cluster.garbage_count t.cluster

(* Staleness signature for [run_until_clean].  The poll only waits for
   one transition — the garbage count reaching zero — so the signature
   need only move when garbage can have been {e reclaimed}, not on
   every reachability-relevant change.  Per-heap we therefore fold
   [Heap.reclaim_mutations] (sweeps and reattachments), not
   [Heap.live_mutations]: local-only churn that can merely {e create}
   garbage (allocation, reference clears, root drops) leaves a cached
   nonzero count conservatively stale, which is sound because a
   nonzero answer keeps the poll running either way.  Aliveness still
   matters both ways (a crash orphans a dead process's objects out of
   the ground truth), and so do the references in flight: both are
   {!Cluster.traffic_signature}. *)
let reach_signature t =
  Array.fold_left
    (fun acc p -> acc + Heap.reclaim_mutations p.Process.heap)
    (Cluster.traffic_signature t.cluster) (rt t).Runtime.procs

let run_until_clean ?(step = 1_000) ?(max_time = 2_000_000) t =
  let stats = Cluster.stats t.cluster in
  let last_sig = ref (-1) in
  let last_count = ref max_int in
  let current_garbage () =
    let s = reach_signature t in
    if s = !last_sig then begin
      Adgc_util.Stats.incr stats "sim.clean_checks.skipped";
      !last_count
    end
    else begin
      Adgc_util.Stats.incr stats "sim.clean_checks";
      let c = garbage_count t in
      last_sig := s;
      last_count := c;
      c
    end
  in
  let rec go () =
    if current_garbage () = 0 then true
    else if now t >= max_time then false
    else begin
      run_for t step;
      go ()
    end
  in
  go ()
