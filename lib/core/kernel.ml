open Adgc_rt

module Detector = Adgc_dcda.Detector

type ctx = {
  rt : Runtime.t;
  store : Adgc_snapshot.Snapshot_store.t;
  detectors : Detector.t array;
}

type duty = Snapshot of int | Scan of int | Lgc of int | Send_sets of int | Maintain_candidates of int

let proc ctx i = ctx.rt.Runtime.procs.(i)

(* Without a detector, the detector's duties do nothing. *)
let with_detector ctx i f = if Array.length ctx.detectors > 0 then f ctx.detectors.(i)

let run_duty ctx = function
  | Snapshot i ->
      ignore (Adgc_snapshot.Snapshot_store.take ctx.store (proc ctx i) : Adgc_snapshot.Summary.t)
  | Scan i -> with_detector ctx i (fun d -> ignore (Detector.scan d : int))
  | Lgc i -> ignore (Adgc_rt.Lgc.run ctx.rt (proc ctx i) : Adgc_rt.Lgc.report)
  | Send_sets i -> Reflist.send_new_sets ctx.rt (proc ctx i)
  | Maintain_candidates _ -> ()

type row = { name : string; period : int; run : int -> unit }

let gc_rows (rt : Runtime.t) =
  let cfg = rt.Runtime.config in
  [
    {
      name = "lgc";
      period = cfg.Runtime.lgc_period;
      run = (fun i -> ignore (Adgc_rt.Lgc.run rt rt.Runtime.procs.(i) : Adgc_rt.Lgc.report));
    };
    {
      name = "sets";
      period = cfg.Runtime.new_set_period;
      run =
        (fun i ->
          let p = rt.Runtime.procs.(i) in
          Reflist.send_new_sets rt p;
          Reflist.probe_idle_scions rt p ~threshold:(3 * cfg.Runtime.new_set_period);
          Reflist.reap_dead_holders rt p);
    };
  ]

let detector_rows ctx ~(policy : Adgc_dcda.Policy.t) =
  let row name period duty = { name; period; run = (fun i -> run_duty ctx (duty i)) } in
  [
    row "snapshot" policy.Adgc_dcda.Policy.snapshot_period (fun i -> Snapshot i);
    row "scan" policy.Adgc_dcda.Policy.scan_period (fun i -> Scan i);
  ]

let schedule ctx ~policy = gc_rows ctx.rt @ detector_rows ctx ~policy

let phase ~n row i = 1 + (i * row.period / Int.max 1 n)

(* One scheduler lane per row: a single global-queue event per duty
   kind with the members' fire times in a lane-local heap, so the
   global queue holds O(rows) entries instead of O(processes x rows);
   each member still fires at exactly [phase + k * period]. *)
let start ?rank cluster rows =
  let n = Cluster.n_procs cluster in
  let members = match rank with Some r -> [| r |] | None -> Array.init n Fun.id in
  Cluster.add_lanes cluster
    (List.map
       (fun row ->
         Scheduler.lane (Cluster.sched cluster) ~n:(Array.length members)
           ~phase_of:(fun k -> phase ~n row members.(k))
           ~period:row.period
           (fun k ->
             let i = members.(k) in
             if (Cluster.proc cluster i).Process.alive then row.run i))
       rows)
