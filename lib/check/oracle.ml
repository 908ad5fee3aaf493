open Adgc_rt
module Trace = Adgc_util.Trace

type event = { time : int; violation : Invariant.violation }

type t = {
  cluster : Cluster.t;
  mutable events : event list;  (** newest first *)
  mutable first_report : string option;
  mutable handle : Scheduler.recurring option;
  mutable stopped : bool;
}

let trace_tail ppf trace =
  let events = Trace.events trace in
  let n = List.length events in
  let skip = Int.max 0 (n - 40) in
  List.iteri
    (fun i e -> if i >= skip then Format.fprintf ppf "%a@," Trace.pp_event e)
    events

(* With telemetry on, every detection's hop chain goes into the
   report: a safety violation usually traces back to the detection
   that deleted the scion, and the lineage shows exactly which hops
   and guards led there. *)
let lineage_chains ppf cluster =
  let lineage = Cluster.lineage cluster in
  match Adgc_obs.Lineage.detections lineage with
  | [] -> Format.fprintf ppf "(no lineage: telemetry was off)"
  | ids ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
        (fun ppf id -> Adgc_obs.Lineage.pp_chain ppf (lineage, id))
        ppf ids

let report t violation =
  Format.asprintf
    "@[<v>oracle: first violation at t=%d: %a@,@,-- cluster --@,%a@,-- trace tail --@,%a@,-- \
     detection lineage --@,%a@]"
    (Cluster.now t.cluster) Invariant.pp violation
    (fun ppf c -> Adgc_workload.Inspect.pp_cluster ppf c)
    t.cluster
    trace_tail (Cluster.trace t.cluster)
    lineage_chains t.cluster

let record t violation =
  if t.first_report = None then t.first_report <- Some (report t violation);
  t.events <- { time = Cluster.now t.cluster; violation } :: t.events

let sweep_instantaneous t = List.iter (record t) (Invariant.check t.cluster)

let stop t =
  (* Idempotent: long bench runs tear the cluster down while the
     caller may still call [stop] on its own — the final sweep must
     run exactly once and the recurring handle must never survive. *)
  if not t.stopped then begin
    t.stopped <- true;
    (match t.handle with
    | Some h ->
        Scheduler.cancel h;
        t.handle <- None
    | None -> ());
    sweep_instantaneous t
  end

let install ?(window = 500) cluster =
  Trace.set_enabled (Cluster.trace cluster) true;
  let t = { cluster; events = []; first_report = None; handle = None; stopped = false } in
  Invariant.watch_sweeps cluster (fun v -> if not t.stopped then record t v);
  t.handle <-
    Some (Scheduler.daemon (Cluster.sched cluster) ~period:window (fun () -> sweep_instantaneous t));
  Cluster.at_teardown cluster (fun () -> stop t);
  t

let events t = List.rev t.events

let first_report t = t.first_report
