open Adgc_algebra
open Adgc_rt
module Summarize = Adgc_snapshot.Summarize
module Summary = Adgc_snapshot.Summary
module Stats = Adgc_util.Stats
module Net_codec = Adgc_serial.Net_codec

type instance = {
  proc : Process.t;
  stamps : int Ref_key.Tbl.t; (* scion timestamps *)
}

type t = {
  rt : Runtime.t;
  cluster : Cluster.t;
  instances : instance array;
  round_period : int;
  depth_slack : int;
  (* Coordinator state (logically lives at process 0). *)
  reports : (int, int) Hashtbl.t; (* proc -> last reported round time *)
  mutable reported_since : Proc_id.Set.t;
  mutable threshold : int;
  mutable stalls : int;
  mutable handles : Scheduler.recurring list;
}

let coordinator = Proc_id.of_int 0

let threshold t = t.threshold

let stalls t = t.stalls

let scion_stamp t ~proc key = Ref_key.Tbl.find_opt t.instances.(proc).stamps key

let send t ~src ~dst payload =
  Runtime.send t.rt ~src ~dst (Msg.Ext (Net_codec.encode_shape Hmsg.emit payload))

(* One propagation round at [inst]: compute per-stub outgoing stamps
   from the current reachability structure, ship them to the owners,
   and report completion to the coordinator. *)
let round t (inst : instance) =
  let p = inst.proc in
  if p.Process.alive then begin
    Stats.incr t.rt.Runtime.stats "hughes.rounds";
    let now = Runtime.now t.rt in
    (* Ensure every scion has a stamp (creation time initially), and
       purge stamps of scions that no longer exist. *)
    let live_keys = ref Ref_key.Set.empty in
    List.iter
      (fun (e : Scion_table.entry) ->
        live_keys := Ref_key.Set.add e.Scion_table.key !live_keys;
        if not (Ref_key.Tbl.mem inst.stamps e.Scion_table.key) then
          Ref_key.Tbl.replace inst.stamps e.Scion_table.key e.Scion_table.created_at)
      (Scion_table.entries p.Process.scions);
    Ref_key.Tbl.iter
      (fun key _ -> if not (Ref_key.Set.mem key !live_keys) then Ref_key.Tbl.remove inst.stamps key)
      (Ref_key.Tbl.copy inst.stamps);
    (* Reachability structure: reuse the summarizer (stubs reachable
       from roots / from each scion). *)
    let summary = Summarize.run ~now p in
    let outgoing = ref Proc_id.Map.empty in
    for j = 0 to snd (Summary.counts summary) - 1 do
      let stamp =
        Summary.fold_scions_to summary j
          (fun dep stamp ->
            match Ref_key.Tbl.find_opt inst.stamps dep with
            | Some s -> Int.max stamp s
            | None -> stamp)
          (if Summary.local_reach summary j then now else -1)
      in
      if stamp >= 0 then begin
        let target = Summary.stub_target summary j in
        let owner = Oid.owner target in
        let prev = Option.value ~default:[] (Proc_id.Map.find_opt owner !outgoing) in
        outgoing := Proc_id.Map.add owner ((target, stamp) :: prev) !outgoing
      end
    done;
    Proc_id.Map.iter
      (fun owner stamps ->
        Stats.incr t.rt.Runtime.stats "hughes.stamp_msgs";
        send t ~src:p.Process.id ~dst:owner (Hmsg.Stamp stamps))
      !outgoing;
    send t ~src:p.Process.id ~dst:coordinator (Hmsg.Report { round_time = now })
  end

(* Coordinator: advance the global minimum only when every process has
   reported since the last broadcast — the all-or-nothing requirement
   the paper criticizes. *)
let coordinator_round t =
  let n = Array.length t.instances in
  if Proc_id.Set.cardinal t.reported_since = n then begin
    let min_report = Hashtbl.fold (fun _ v acc -> Int.min v acc) t.reports max_int in
    let value = min_report - (t.depth_slack * t.round_period) in
    if value > t.threshold then begin
      t.threshold <- value;
      t.reported_since <- Proc_id.Set.empty;
      Stats.incr t.rt.Runtime.stats "hughes.threshold_advanced";
      for i = 0 to n - 1 do
        send t ~src:coordinator ~dst:(Proc_id.of_int i) (Hmsg.Threshold { value })
      done
    end
  end
  else begin
    t.stalls <- t.stalls + 1;
    Stats.incr t.rt.Runtime.stats "hughes.threshold_stalled"
  end

let handle t (inst : instance) ~src body =
  match Net_codec.Read.run Hmsg.read body with
  | exception Adgc_serial.Wire.Malformed _ -> Stats.incr t.rt.Runtime.stats "hughes.malformed"
  | Hmsg.Stamp stamps ->
      List.iter
        (fun (target, stamp) ->
          let key = Ref_key.make ~src ~target in
          if Scion_table.mem inst.proc.Process.scions key then
            let prev = Option.value ~default:min_int (Ref_key.Tbl.find_opt inst.stamps key) in
            if stamp > prev then Ref_key.Tbl.replace inst.stamps key stamp)
        stamps
  | Hmsg.Report { round_time } ->
      (* Only the coordinator receives these. *)
      Hashtbl.replace t.reports (Proc_id.to_int src) round_time;
      t.reported_since <- Proc_id.Set.add src t.reported_since
  | Hmsg.Threshold { value } ->
      (* Delete scions whose timestamp froze below the global minimum. *)
      let doomed =
        Ref_key.Tbl.fold
          (fun key stamp acc -> if stamp < value then key :: acc else acc)
          inst.stamps []
      in
      List.iter
        (fun key ->
          Ref_key.Tbl.remove inst.stamps key;
          if Scion_table.delete ~tombstone:true inst.proc.Process.scions key then begin
            Stats.incr t.rt.Runtime.stats "hughes.scions_deleted";
            Runtime.log t.rt ~topic:"hughes" "%a: scion %a below threshold %d, deleted"
              Proc_id.pp inst.proc.Process.id Ref_key.pp key value
          end)
        doomed

let stop t =
  List.iter Scheduler.cancel t.handles;
  t.handles <- []

let install ?(round_period = 500) ?depth_slack cluster =
  let rt = Cluster.rt cluster in
  let n = Cluster.n_procs cluster in
  let depth_slack = match depth_slack with Some d -> d | None -> 4 * n in
  let instances =
    Array.init n (fun i -> { proc = Cluster.proc cluster i; stamps = Ref_key.Tbl.create 32 })
  in
  let t =
    {
      rt;
      cluster;
      instances;
      round_period;
      depth_slack;
      reports = Hashtbl.create 8;
      reported_since = Proc_id.Set.empty;
      threshold = -1;
      stalls = 0;
      handles = [];
    }
  in
  Array.iteri
    (fun i inst ->
      inst.proc.Process.on_ext <- Some (handle t inst);
      let handle_r =
        Scheduler.every rt.Runtime.sched
          ~phase:(1 + (i * round_period / n))
          ~period:round_period
          (fun () -> round t inst)
      in
      t.handles <- handle_r :: t.handles)
    instances;
  let coord =
    Scheduler.every rt.Runtime.sched ~phase:(round_period + 2) ~period:round_period (fun () ->
        if (Cluster.proc cluster 0).Process.alive then coordinator_round t)
  in
  t.handles <- coord :: t.handles;
  Cluster.at_teardown cluster (fun () -> stop t);
  t
