open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Stats = Adgc_util.Stats
module Span = Adgc_obs.Span
module Lineage = Adgc_obs.Lineage

type t = {
  rt : Runtime.t;
  proc : Process.t;
  policy : Policy.t;
  mutable summary : Summary.t option;
  mutable next_seq : int;
  mutable started : int;
  last_initiated : int Ref_key.Tbl.t; (* candidate cooldown *)
  attempts : int Ref_key.Tbl.t;
      (* fruitless initiations per candidate: the cooldown backs off
         exponentially so cycles blocked by long-lived external
         dependencies (paper Fig. 1) stop burning CDMs every scan *)
  mutable scan_cursor : Ref_key.t option; (* rotation point, see Policy.scan_order *)
  mutable reports : Report.t list;
}

let proc_id t = t.proc.Process.id

let policy t = t.policy

let set_summary t summary =
  (* Gauntlet mutant: freeze the first snapshot forever — guards then
     reason about counters the mutator has since moved past. *)
  match (t.summary, Adgc_util.Mc_mutate.enabled "stale_summaries") with
  | Some _, true -> ()
  | (Some _ | None), _ -> t.summary <- Some summary

let summary t = t.summary

let reports t = List.rev t.reports

let detections_started t = t.started

let abort t id reason =
  Stats.incr t.rt.Runtime.stats ("dcda.abort." ^ reason);
  Lineage.record t.rt.Runtime.lineage id
    (Lineage.Guard { at = proc_id t; time = Runtime.now t.rt; reason });
  Runtime.log t.rt ~topic:"dcda" "%a: %a aborted (%s)" Proc_id.pp (proc_id t) Detection_id.pp id
    reason

(* Delete proven scions at the concluding process per policy, and
   broadcast the remaining ones when configured. *)
let conclude t ~(id : Detection_id.t) ~algebra ~(arrival : Ref_key.t) ~hops =
  let proven = List.map fst (Algebra.source algebra) in
  let mine, others =
    List.partition (fun key -> Proc_id.equal (Ref_key.owner key) (proc_id t)) proven
  in
  let to_delete =
    match t.policy.Policy.deletion_mode with
    | Policy.Arrival_only -> [ arrival ]
    | Policy.All_local | Policy.Broadcast -> mine
  in
  let deleted_here =
    List.filter (fun key -> Scion_table.delete ~tombstone:true t.proc.Process.scions key) to_delete
  in
  List.iter
    (fun key ->
      Stats.incr t.rt.Runtime.stats "dcda.scions_deleted";
      Runtime.log t.rt ~topic:"dcda" "%a: proven-cycle scion %a deleted" Proc_id.pp (proc_id t)
        Ref_key.pp key)
    deleted_here;
  (match t.policy.Policy.deletion_mode with
  | Policy.Broadcast ->
      let by_owner =
        List.fold_left
          (fun acc key ->
            let owner = Ref_key.owner key in
            let prev = Option.value ~default:[] (Proc_id.Map.find_opt owner acc) in
            Proc_id.Map.add owner (key :: prev) acc)
          Proc_id.Map.empty others
      in
      Proc_id.Map.iter
        (fun owner scions ->
          Runtime.send_dgc t.rt ~src:(proc_id t) ~dst:owner (Msg.Cdm_delete { id; scions }))
        by_owner
  | Policy.Arrival_only | Policy.All_local -> ());
  Stats.incr t.rt.Runtime.stats "dcda.cycles_found";
  let now = Runtime.now t.rt in
  let lineage = t.rt.Runtime.lineage in
  if Lineage.enabled lineage then begin
    Lineage.record lineage id
      (Lineage.Concluded
         { at = proc_id t; time = now; proven = true; hops; refs = List.length proven });
    Stats.observe t.rt.Runtime.stats "dcda.cdm_chain_hops" (float_of_int hops);
    (* Detection latency needs the initiation tick, which only the
       lineage registry (fed at the initiator) knows — hence this
       metric exists only under telemetry. *)
    (match Lineage.hops lineage id with
    | Lineage.Initiated { time = t0; _ } :: _ ->
        Stats.observe t.rt.Runtime.stats "dcda.detection_latency" (float_of_int (now - t0))
    | _ -> ());
    match Lineage.span lineage id with
    | Some span ->
        Span.end_span t.rt.Runtime.obs ~time:now
          ~args:[ ("proven", string_of_int (List.length proven)); ("hops", string_of_int hops) ]
          span
    | None -> ()
  end;
  let report =
    {
      Report.id;
      concluded_at = proc_id t;
      concluded_time = now;
      proven;
      hops;
      deleted_here;
      lineage = Lineage.hops lineage id;
    }
  in
  t.reports <- report :: t.reports;
  Runtime.log t.rt ~topic:"dcda" "%a: CYCLE FOUND %a (%d refs, %d hops)" Proc_id.pp (proc_id t)
    Detection_id.pp id (List.length proven) hops

(* Fan the detection out from an arrival scion: one CDM derivation per
   followable stub in StubsFrom.  [delivered] is the algebra as it
   stood when the CDM arrived (arrival-scion entry included) — the
   reference for the no-new-information check.  [budget] is what this
   branch may still spend; it is split across the derivations that
   survive the filters, with the remainder handed out at a random
   rotation so repeated attempts explore different subtrees of a dense
   garbage graph. *)
let proceed_from t ~id ~delivered ~(si : Summary.scion_info) ~hops ~budget =
  let summary = match t.summary with Some s -> s | None -> assert false in
  let exception Stop of string in
  try
    (* First pass: build the forwardable derivations. *)
    let derivations =
      Oid.Set.fold
        (fun stub_target acc ->
          match Summary.find_stub summary stub_target with
          | None ->
              (* The summary is internally consistent, so this indicates
                 a stub swept between trace passes; treat as rule 1. *)
              Stats.incr t.rt.Runtime.stats "dcda.branch.missing_stub";
              acc
          | Some stub ->
              if
                stub.Summary.local_reach
                (* The ignore_local_reach mutant forgets rule 2 both
                   here and at CDM arrival: locally reachable
                   continuations get followed and concluded over. *)
                && not (Adgc_util.Mc_mutate.enabled "ignore_local_reach")
              then begin
                (* Locally reachable continuation: never follow (§2.1). *)
                Stats.incr t.rt.Runtime.stats "dcda.branch.local_reach";
                acc
              end
              else begin
                let add side key ~ic alg =
                  match Algebra.add alg side key ~ic with
                  | Algebra.Added alg -> alg
                  | Algebra.Ic_conflict _ ->
                      (* The skip_ic_guards mutant keeps the first
                         counter it saw instead of aborting — rule 3 in
                         its add-time form is the same guard. *)
                      if Adgc_util.Mc_mutate.enabled "skip_ic_guards" then alg
                      else raise (Stop "ic_conflict")
                in
                let stub_key = Ref_key.make ~src:(proc_id t) ~target:stub_target in
                (* Gauntlet mutant: lose one scion dependency from the
                   source set — an external holder of the "cycle" goes
                   unaccounted and matching can cancel to nothing. *)
                let deps =
                  if
                    Adgc_util.Mc_mutate.enabled "drop_source_scion"
                    && not (Ref_key.Set.is_empty stub.Summary.scions_to)
                  then
                    Ref_key.Set.remove
                      (Ref_key.Set.min_elt stub.Summary.scions_to)
                      stub.Summary.scions_to
                  else stub.Summary.scions_to
                in
                let alg =
                  delivered
                  |> fun alg ->
                  Ref_key.Set.fold
                    (fun dep alg ->
                      match Summary.find_scion summary dep with
                      | Some dep_info -> add Algebra.Source dep ~ic:dep_info.Summary.scion_ic alg
                      | None -> alg (* cannot happen for a coherent summary *))
                    deps alg
                  |> add Algebra.Target stub_key ~ic:stub.Summary.stub_ic
                in
                if Algebra.equal alg delivered then begin
                  (* No new information: the derivation would loop
                     forever re-announcing the same dependency. *)
                  Stats.incr t.rt.Runtime.stats "dcda.branch.no_new_info";
                  acc
                end
                else if
                  (* §3.2 optimization: analyse the unmatched counters
                     of the algebra about to leave; a conflict here
                     means the next hop would only abort it anyway. *)
                  t.policy.Policy.early_ic_check
                  &&
                  match Algebra.verdict alg with
                  | Algebra.Conflict -> true
                  | Algebra.Counts _ -> false
                then begin
                  Stats.incr t.rt.Runtime.stats "dcda.abort.ic_mismatch_early";
                  Stats.incr t.rt.Runtime.stats "dcda.cdm_saved";
                  acc
                end
                else (stub_key, alg) :: acc
              end)
        si.Summary.stubs_from []
    in
    (* Second pass: split the budget and send.  [budget] is the number
       of CDMs this branch may still emit in total; each child send
       costs one and the leftover is divided among the children (a
       zero-leftover child is still sent — its delivery can conclude
       the detection without forwarding further). *)
    let k = List.length derivations in
    (* A chain that cannot fan out any further is a dead end, not an
       abort — but the lineage should still say where it stopped. *)
    if k = 0 then
      Lineage.record t.rt.Runtime.lineage id
        (Lineage.Guard { at = proc_id t; time = Runtime.now t.rt; reason = "dead_end" })
    else if budget <= 0 then
      Lineage.record t.rt.Runtime.lineage id
        (Lineage.Guard { at = proc_id t; time = Runtime.now t.rt; reason = "budget" });
    if k > 0 && budget > 0 then begin
      let to_send = Int.min k budget in
      let leftover = budget - to_send in
      let share = leftover / to_send and extra = leftover mod to_send in
      (* Random rotation: which derivations get funded (and which get
         the +1) changes between attempts, so retries explore different
         subtrees of dense graphs. *)
      let rotation = if k > 1 then Adgc_util.Rng.int t.proc.Process.rng k else 0 in
      List.iteri
        (fun i (stub_key, alg) ->
          let slot = (i + k - rotation) mod k in
          if slot >= to_send then Stats.incr t.rt.Runtime.stats "dcda.branch.budget"
          else begin
            let child_budget = share + (if slot < extra then 1 else 0) in
            Stats.incr t.rt.Runtime.stats "dcda.cdm_sent";
            if Lineage.enabled t.rt.Runtime.lineage then begin
              let sources, targets = Algebra.cardinal alg in
              Lineage.record t.rt.Runtime.lineage id
                (Lineage.Sent
                   {
                     at = proc_id t;
                     dst = Ref_key.owner stub_key;
                     time = Runtime.now t.rt;
                     sources;
                     targets;
                     hops = hops + 1;
                   })
            end;
            Runtime.send_dgc t.rt ~src:(proc_id t)
              ~dst:(Ref_key.owner stub_key)
              (Msg.Cdm
                 (Cdm.make ~id ~algebra:alg ~frontier:stub_key ~hops:(hops + 1)
                    ~budget:child_budget))
          end)
        derivations
    end
    else if k > 0 then Stats.incr t.rt.Runtime.stats "dcda.branch.budget"
  with Stop reason -> abort t id reason

let handle_cdm t (cdm : Cdm.t) =
  Stats.incr t.rt.Runtime.stats "dcda.cdm_received";
  let id = cdm.Cdm.id in
  if Lineage.enabled t.rt.Runtime.lineage then begin
    let sources, targets = Algebra.cardinal cdm.Cdm.algebra in
    Lineage.record t.rt.Runtime.lineage id
      (Lineage.Received { at = proc_id t; time = Runtime.now t.rt; sources; targets; hops = cdm.Cdm.hops })
  end;
  match t.summary with
  | None -> abort t id "no_summary"
  | Some summary -> (
      let arrival = cdm.Cdm.frontier in
      match Summary.find_scion summary arrival with
      | None ->
          (* Safety rule 1: stub without corresponding scion in the
             published snapshot — ignore the CDM. *)
          abort t id "missing_scion"
      | Some si -> (
          (* Safety rule 3 (delivery-time form): the stub-side counter
             travelled in the CDM's target set; compare it with the
             scion-side counter in our snapshot. *)
          let stub_side_ic = Algebra.ic cdm.Cdm.algebra Algebra.Target arrival in
          match stub_side_ic with
          | Some ic
            when ic <> si.Summary.scion_ic
                 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") ->
              abort t id "ic_mismatch_delivery"
          | None -> abort t id "malformed_cdm"
          | Some _ ->
              if
                si.Summary.target_locally_reachable
                && not (Adgc_util.Mc_mutate.enabled "ignore_local_reach")
              then abort t id "locally_reachable"
              else begin
                (* The skip_ic_guards mutant trusts the counter that
                   travelled in the CDM over the snapshot's own — and
                   keeps whichever value arrived first on a conflict. *)
                let arrival_ic =
                  if Adgc_util.Mc_mutate.enabled "skip_ic_guards" then
                    match stub_side_ic with Some ic -> ic | None -> si.Summary.scion_ic
                  else si.Summary.scion_ic
                in
                match
                  match Algebra.add cdm.Cdm.algebra Algebra.Source arrival ~ic:arrival_ic with
                  | Algebra.Ic_conflict _
                    when Adgc_util.Mc_mutate.enabled "skip_ic_guards" ->
                      (* Same mutant as in [proceed_from]: rule 3's
                         add-time form silently keeps the first counter
                         instead of aborting. *)
                      Algebra.Added cdm.Cdm.algebra
                  | r -> r
                with
                | Algebra.Ic_conflict _ -> abort t id "ic_conflict"
                | Algebra.Added alg -> (
                    match Algebra.verdict alg with
                    | Algebra.Conflict -> abort t id "ic_mismatch_matching"
                    | Algebra.Counts { unresolved = 0; frontier = 0 } ->
                        conclude t ~id ~algebra:alg ~arrival ~hops:cdm.Cdm.hops
                    | Algebra.Counts { unresolved = _; frontier = 0 }
                      when Adgc_util.Mc_mutate.enabled "conclude_ignores_unresolved" ->
                        (* Gauntlet mutant: declare victory while scion
                           dependencies are still untraversed — an
                           external holder of the "cycle" (paper Fig. 1)
                           is exactly such a dependency. *)
                        conclude t ~id ~algebra:alg ~arrival ~hops:cdm.Cdm.hops
                    | Algebra.Counts _ -> (
                        match t.policy.Policy.ttl with
                        | Some ttl when cdm.Cdm.hops >= ttl -> abort t id "ttl"
                        | Some _ | None ->
                            proceed_from t ~id ~delivered:alg ~si ~hops:cdm.Cdm.hops
                              ~budget:cdm.Cdm.budget))
              end))

let handle_cdm_delete t (_id : Detection_id.t) (scions : Ref_key.t list) =
  List.iter
    (fun key ->
      if Proc_id.equal (Ref_key.owner key) (proc_id t) then
        if Scion_table.delete ~tombstone:true t.proc.Process.scions key then begin
          Stats.incr t.rt.Runtime.stats "dcda.scions_deleted";
          Stats.incr t.rt.Runtime.stats "dcda.scions_deleted.broadcast"
        end)
    scions

let initiate t key =
  match t.summary with
  | None -> false
  | Some summary -> (
      match Summary.find_scion summary key with
      | None -> false
      | Some si ->
          if si.Summary.target_locally_reachable then false
          else if
            (* Gauntlet mutant: never retry a candidate — a detection
               whose CDM was lost then starves forever, breaking the
               paper's resilience-to-message-loss claim. *)
            Ref_key.Tbl.mem t.last_initiated key
            && Adgc_util.Mc_mutate.enabled "no_reinitiation"
          then false
          else begin
            let id = Detection_id.make ~initiator:(proc_id t) ~seq:t.next_seq in
            t.next_seq <- t.next_seq + 1;
            t.started <- t.started + 1;
            Ref_key.Tbl.replace t.last_initiated key (Runtime.now t.rt);
            (* Counted as fruitless until proven otherwise: a
               conclusion deletes the scion, which resets the entry
               (the key disappears from future summaries). *)
            Ref_key.Tbl.replace t.attempts key
              (1 + Option.value ~default:0 (Ref_key.Tbl.find_opt t.attempts key));
            Stats.incr t.rt.Runtime.stats "dcda.detections_started";
            let lineage = t.rt.Runtime.lineage in
            if Lineage.enabled lineage then begin
              let now = Runtime.now t.rt in
              Lineage.record lineage id
                (Lineage.Initiated { at = proc_id t; time = now; candidate = key });
              let span =
                Span.begin_span t.rt.Runtime.obs ~time:now ~parent:t.rt.Runtime.run_span
                  ~proc:(Proc_id.to_int (proc_id t))
                  ~kind:Span.Detection
                  (Printf.sprintf "detection %s" (Detection_id.to_string id))
              in
              Lineage.set_span lineage id span
            end;
            Runtime.log t.rt ~topic:"dcda" "%a: detection %a starts from candidate %a" Proc_id.pp
              (proc_id t) Detection_id.pp id Ref_key.pp key;
            let alg = Algebra.add_exn Algebra.empty Algebra.Source key ~ic:si.Summary.scion_ic in
            proceed_from t ~id ~delivered:alg ~si ~hops:0
              ~budget:t.policy.Policy.cdm_budget;
            true
          end)

(* Reorder the candidate list per the configured scan order. *)
let arrange t candidates =
  match t.policy.Policy.scan_order with
  | Policy.Sorted -> candidates
  | Policy.Rotating -> (
      match t.scan_cursor with
      | None -> candidates
      | Some cursor ->
          let after, upto =
            List.partition
              (fun (si : Summary.scion_info) -> Ref_key.compare si.Summary.key cursor > 0)
              candidates
          in
          after @ upto)

(* Pick this round's candidates and start a detection per pick.  The
   source is the published summary: its scions whose target is not
   locally reachable, in ascending key order, so it is exactly as
   stale as the summary.  The policy filters, arrangement, pick and
   cursor update then run over that list. *)
let scan t =
  match t.summary with
  | None -> 0
  | Some summary ->
      let now = Runtime.now t.rt in
      let effective_cooldown key =
        if not t.policy.Policy.backoff then t.policy.Policy.cooldown
        else
          let attempts =
            Int.min 5 (Option.value ~default:0 (Ref_key.Tbl.find_opt t.attempts key))
          in
          t.policy.Policy.cooldown * (1 lsl attempts)
      in
      let candidates =
        List.filter
          (fun (si : Summary.scion_info) ->
            (not si.Summary.target_locally_reachable)
            && now - si.Summary.last_invoked >= t.policy.Policy.idle_threshold
            &&
            match Ref_key.Tbl.find_opt t.last_initiated si.Summary.key with
            | Some last -> now - last >= effective_cooldown si.Summary.key
            | None -> true)
          (Summary.scion_list summary)
      in
      let candidates = arrange t candidates in
      let picked = List.filteri (fun i _ -> i < t.policy.Policy.max_per_scan) candidates in
      (match List.rev picked with
      | last :: _ -> t.scan_cursor <- Some last.Summary.key
      | [] -> ());
      List.fold_left
        (fun acc (si : Summary.scion_info) -> if initiate t si.Summary.key then acc + 1 else acc)
        0 picked

let attach rt proc ~policy =
  let t =
    {
      rt;
      proc;
      policy;
      summary = None;
      next_seq = 0;
      started = 0;
      last_initiated = Ref_key.Tbl.create 16;
      attempts = Ref_key.Tbl.create 16;
      scan_cursor = None;
      reports = [];
    }
  in
  proc.Process.on_cdm <- Some (handle_cdm t);
  proc.Process.on_cdm_delete <- Some (handle_cdm_delete t);
  t
