open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Net_codec = Adgc_serial.Net_codec
module Stats = Adgc_util.Stats
module Lineage = Adgc_obs.Lineage

(* Back-traces share the detection lineage registry with the DCDA: a
   trace id is isomorphic to a detection id. *)
let det_id (trace : Btmsg.trace_id) =
  Detection_id.make ~initiator:trace.Btmsg.initiator ~seq:trace.Btmsg.seq

module Trace_map = Map.Make (struct
  type t = Btmsg.trace_id

  let compare = Btmsg.trace_id_compare
end)

module Key = struct
  type t = Btmsg.trace_id * Ref_key.t

  let compare (ta, ka) (tb, kb) =
    let c = Btmsg.trace_id_compare ta tb in
    if c <> 0 then c else Ref_key.compare ka kb
end

module Key_map = Map.Make (Key)

(* A continuation: one query we owe an answer for, waiting on child
   back-traces. *)
type waiting = {
  w_subject : Ref_key.t;
  w_reply_to : Proc_id.t;
  mutable w_pending : Ref_key.Set.t;
  mutable w_done : bool;
}

type verdict_memo = Verdict of Btmsg.verdict | In_flight

type t = {
  rt : Runtime.t;
  proc : Process.t;
  timeout : int;
  mutable summary : Summary.t option;
  mutable next_seq : int;
  (* Intermediate state (the cost the DCDA does not pay). *)
  mutable waitings : waiting Key_map.t;
  mutable dep_waiters : Ref_key.t list Key_map.t; (* (trace, dep) -> subjects awaiting it *)
  mutable memo : verdict_memo Key_map.t;
  (* Initiator state. *)
  mutable initiated : Ref_key.t Trace_map.t;
  mutable verdicts_acc : (Ref_key.t * bool) list;
}

let proc_id t = t.proc.Process.id

let set_summary t summary = t.summary <- Some summary

let verdicts t = List.rev t.verdicts_acc

let state_size t = Key_map.cardinal t.waitings + Key_map.cardinal t.memo

let track_state_peak t =
  let size = state_size t in
  let stats = t.rt.Runtime.stats in
  if size > Stats.get stats "bt.state_peak" then begin
    Stats.add stats "bt.state_peak" (size - Stats.get stats "bt.state_peak")
  end

(* Memo entries are per-trace and must not outlive it, or a long run
   accumulates state without bound. *)
let memoize t ~trace ~dep v =
  t.memo <- Key_map.add (trace, dep) v t.memo;
  Scheduler.schedule_after t.rt.Runtime.sched ~delay:(2 * t.timeout) (fun () ->
      t.memo <- Key_map.remove (trace, dep) t.memo)

let send_bt t ~dst payload =
  Stats.incr t.rt.Runtime.stats "bt.msg";
  Runtime.send t.rt ~src:(proc_id t) ~dst (Msg.Ext (Net_codec.encode_shape Btmsg.emit payload))

let reply t ~dst ~trace ~subject verdict =
  send_bt t ~dst (Btmsg.Reply { trace; subject; verdict })

(* Conclude one waiting continuation. *)
let finish_waiting t ~trace (w : waiting) verdict =
  if not w.w_done then begin
    w.w_done <- true;
    t.waitings <- Key_map.remove (trace, w.w_subject) t.waitings;
    reply t ~dst:w.w_reply_to ~trace ~subject:w.w_subject verdict
  end

(* Answer a query about [subject] (a stub held by this process):
   rooted here, or recursively through the scions leading to it. *)
let handle_query t ~src (q : Btmsg.query) =
  let trace = q.Btmsg.trace and subject = q.Btmsg.subject in
  Lineage.record t.rt.Runtime.lineage (det_id trace)
    (Lineage.Received
       {
         at = proc_id t;
         time = Runtime.now t.rt;
         sources = 0;
         targets = 1;
         hops = List.length q.Btmsg.visited;
       });
  let answer verdict = reply t ~dst:src ~trace ~subject verdict in
  match t.summary with
  | None -> answer Btmsg.Rooted (* unknown: conservative *)
  | Some summary -> (
      match Summary.find_stub summary subject.Ref_key.target with
      | None -> answer Btmsg.Rooted
      | Some stub ->
          if Summary.local_reach summary stub then answer Btmsg.Rooted
          else begin
            let deps =
              Summary.fold_scions_to summary stub
                (fun dep deps ->
                  if List.exists (Ref_key.equal dep) q.Btmsg.visited then deps
                  else Ref_key.Set.add dep deps)
                Ref_key.Set.empty
            in
            if Ref_key.Set.is_empty deps then answer Btmsg.Cycle_back
            else begin
              let w =
                { w_subject = subject; w_reply_to = src; w_pending = deps; w_done = false }
              in
              t.waitings <- Key_map.add (trace, subject) w t.waitings;
              track_state_peak t;
              (* Expire abandoned continuations. *)
              Scheduler.schedule_after t.rt.Runtime.sched ~delay:t.timeout (fun () ->
                  if not w.w_done then begin
                    w.w_done <- true;
                    t.waitings <- Key_map.remove (trace, subject) t.waitings
                  end);
              let visited = subject :: q.Btmsg.visited in
              Ref_key.Set.iter
                (fun dep ->
                  match Key_map.find_opt (trace, dep) t.memo with
                  | Some (Verdict v) ->
                      (* Resolved earlier in this trace: consume now. *)
                      (match v with
                      | Btmsg.Rooted -> finish_waiting t ~trace w Btmsg.Rooted
                      | Btmsg.Cycle_back ->
                          w.w_pending <- Ref_key.Set.remove dep w.w_pending;
                          if Ref_key.Set.is_empty w.w_pending then
                            finish_waiting t ~trace w Btmsg.Cycle_back)
                  | Some In_flight ->
                      let prev =
                        Option.value ~default:[] (Key_map.find_opt (trace, dep) t.dep_waiters)
                      in
                      t.dep_waiters <- Key_map.add (trace, dep) (subject :: prev) t.dep_waiters
                  | None ->
                      memoize t ~trace ~dep In_flight;
                      t.dep_waiters <- Key_map.add (trace, dep) [ subject ] t.dep_waiters;
                      track_state_peak t;
                      Lineage.record t.rt.Runtime.lineage (det_id trace)
                        (Lineage.Sent
                           {
                             at = proc_id t;
                             dst = dep.Ref_key.src;
                             time = Runtime.now t.rt;
                             sources = 0;
                             targets = 1;
                             hops = 1 + List.length visited;
                           });
                      send_bt t ~dst:dep.Ref_key.src
                        (Btmsg.Query { trace; subject = dep; visited = dep :: visited }))
                deps
            end
          end)

let conclude_initiator t ~trace ~root verdict =
  t.initiated <- Trace_map.remove trace t.initiated;
  let garbage = match verdict with Btmsg.Cycle_back -> true | Btmsg.Rooted -> false in
  Lineage.record t.rt.Runtime.lineage (det_id trace)
    (Lineage.Concluded
       { at = proc_id t; time = Runtime.now t.rt; proven = garbage; hops = 0; refs = 1 });
  t.verdicts_acc <- (root, garbage) :: t.verdicts_acc;
  if garbage then begin
    Stats.incr t.rt.Runtime.stats "bt.cycles_found";
    ignore (Scion_table.delete ~tombstone:true t.proc.Process.scions root : bool);
    Runtime.log t.rt ~topic:"bt" "%a: back-trace proved %a garbage" Proc_id.pp (proc_id t)
      Ref_key.pp root
  end
  else Stats.incr t.rt.Runtime.stats "bt.rooted"

let handle_reply t (r : Btmsg.reply) =
  let trace = r.Btmsg.trace and dep = r.Btmsg.subject in
  (* Initiator root reply? *)
  (match Trace_map.find_opt trace t.initiated with
  | Some root when Ref_key.equal root dep -> conclude_initiator t ~trace ~root r.Btmsg.verdict
  | Some _ | None -> ());
  memoize t ~trace ~dep (Verdict r.Btmsg.verdict);
  match Key_map.find_opt (trace, dep) t.dep_waiters with
  | None -> ()
  | Some subjects ->
      t.dep_waiters <- Key_map.remove (trace, dep) t.dep_waiters;
      List.iter
        (fun subject ->
          match Key_map.find_opt (trace, subject) t.waitings with
          | None -> ()
          | Some w -> (
              match r.Btmsg.verdict with
              | Btmsg.Rooted -> finish_waiting t ~trace w Btmsg.Rooted
              | Btmsg.Cycle_back ->
                  w.w_pending <- Ref_key.Set.remove dep w.w_pending;
                  if Ref_key.Set.is_empty w.w_pending then
                    finish_waiting t ~trace w Btmsg.Cycle_back))
        subjects

let handle_ext t ~src body =
  match Net_codec.Read.run Btmsg.read body with
  | Btmsg.Query q -> handle_query t ~src q
  | Btmsg.Reply r -> handle_reply t r
  | exception Adgc_serial.Wire.Malformed _ -> Stats.incr t.rt.Runtime.stats "bt.malformed"

let suspect t key =
  match t.summary with
  | None -> false
  | Some summary -> (
      match Summary.find_scion summary key with
      | None -> false
      | Some scion ->
          if Summary.target_locally_reachable summary scion then false
          else begin
            let trace = { Btmsg.initiator = proc_id t; seq = t.next_seq } in
            t.next_seq <- t.next_seq + 1;
            t.initiated <- Trace_map.add trace key t.initiated;
            Stats.incr t.rt.Runtime.stats "bt.traces_started";
            Lineage.record t.rt.Runtime.lineage (det_id trace)
              (Lineage.Initiated { at = proc_id t; time = Runtime.now t.rt; candidate = key });
            Scheduler.schedule_after t.rt.Runtime.sched ~delay:t.timeout (fun () ->
                if Trace_map.mem trace t.initiated then begin
                  t.initiated <- Trace_map.remove trace t.initiated;
                  Stats.incr t.rt.Runtime.stats "bt.timeouts";
                  Lineage.record t.rt.Runtime.lineage (det_id trace)
                    (Lineage.Guard
                       { at = proc_id t; time = Runtime.now t.rt; reason = "timeout" })
                end);
            send_bt t ~dst:key.Ref_key.src
              (Btmsg.Query { trace; subject = key; visited = [ key ] });
            true
          end)

let scan t ~idle_threshold =
  match t.summary with
  | None -> 0
  | Some summary ->
      let now = Runtime.now t.rt in
      let started = ref 0 in
      for i = 0 to fst (Summary.counts summary) - 1 do
        if
          (not (Summary.target_locally_reachable summary i))
          && now - Summary.last_invoked summary i >= idle_threshold
          && suspect t (Summary.scion_key summary i)
        then incr started
      done;
      !started

let attach ?(timeout = 50_000) rt proc =
  let t =
    {
      rt;
      proc;
      timeout;
      summary = None;
      next_seq = 0;
      waitings = Key_map.empty;
      dep_waiters = Key_map.empty;
      memo = Key_map.empty;
      initiated = Trace_map.empty;
      verdicts_acc = [];
    }
  in
  proc.Process.on_ext <- Some (handle_ext t);
  t

let install ?timeout ~idle_threshold sim =
  let rt = Adgc.Sim.rt sim in
  let bts = Array.map (attach ?timeout rt) rt.Runtime.procs in
  Adgc_snapshot.Snapshot_store.subscribe (Adgc.Sim.store sim) (fun summary ->
      set_summary bts.(Proc_id.to_int (Summary.proc summary)) summary);
  let period = (Adgc.Sim.config sim).Adgc.Config.policy.Adgc_dcda.Policy.scan_period in
  let run i = ignore (scan bts.(i) ~idle_threshold : int) in
  Adgc.Kernel.start (Adgc.Sim.cluster sim) [ { Adgc.Kernel.name = "scan"; period; run } ];
  bts
