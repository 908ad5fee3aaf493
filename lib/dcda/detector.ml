open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Stats = Adgc_util.Stats
module Span = Adgc_obs.Span
module Lineage = Adgc_obs.Lineage

(* A scion that detections started from: when the last one started,
   and how many have started.  Each counts as fruitless until proven
   otherwise: a conclusion deletes the scion, and the key disappears
   from later summaries. *)
type candidate = { mutable last : int; mutable attempts : int }

type t = {
  rt : Runtime.t;
  proc : Process.t;
  policy : Policy.t;
  mutable summary : Summary.t option;
  mutable next_seq : int;
  candidates : candidate Ref_key.Tbl.t;
      (* the cooldown backs off exponentially in [attempts], so cycles
         blocked by long-lived external dependencies (paper Fig. 1)
         stop burning CDMs every scan *)
  mutable scan_cursor : Ref_key.t option; (* the last pick: a scan resumes just past it *)
  mutable reports : Report.t list;
}

let proc_id t = t.proc.Process.id

let set_summary t summary =
  (* Gauntlet mutant: freeze the first snapshot forever — guards then
     reason about counters the mutator has since moved past. *)
  match (t.summary, Adgc_util.Mc_mutate.enabled "stale_summaries") with
  | Some _, true -> ()
  | (Some _ | None), _ -> t.summary <- Some summary

let summary t = t.summary

let reports t = List.rev t.reports

(* Why a detection stops at a guard: the closed set of reasons, each
   with its counter's name built once. *)
type reason = { name : string; counter : string }

let reason name = { name; counter = "dcda.abort." ^ name }

let no_summary = reason "no_summary"
and missing_scion = reason "missing_scion"
and ic_mismatch_delivery = reason "ic_mismatch_delivery"
and malformed_cdm = reason "malformed_cdm"
and locally_reachable = reason "locally_reachable"
and ic_conflict = reason "ic_conflict"
and ic_mismatch_matching = reason "ic_mismatch_matching"

let abort t id { name; counter } =
  Stats.incr t.rt.Runtime.stats counter;
  Lineage.record t.rt.Runtime.lineage id
    (Lineage.Guard { at = proc_id t; time = Runtime.now t.rt; reason = name });
  Runtime.log t.rt ~topic:"dcda" "%a: %a aborted (%s)" Proc_id.pp (proc_id t) Detection_id.pp id
    name

(* Delete the proven scions this process owns, and broadcast the
   remaining ones when configured. *)
let conclude t ~(id : Detection_id.t) ~algebra ~hops =
  let proven = List.map fst (Algebra.bindings algebra Algebra.Source) in
  let mine, others =
    List.partition (fun key -> Proc_id.equal (Ref_key.owner key) (proc_id t)) proven
  in
  let deleted_here =
    List.filter (fun key -> Scion_table.delete ~tombstone:true t.proc.Process.scions key) mine
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
  | Policy.All_local -> ());
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
let proceed_from t summary ~id ~delivered ~scion ~hops ~budget =
  let exception Stop of reason in
  try
    (* First pass: build the forwardable derivations. *)
    let derivations =
      Summary.fold_stubs_from summary scion
        (fun stub_target acc ->
          match Summary.find_stub summary stub_target with
          | None ->
              (* The summary is internally consistent, so this indicates
                 a stub swept between trace passes; treat as rule 1. *)
              Stats.incr t.rt.Runtime.stats "dcda.branch.missing_stub";
              acc
          | Some stub ->
              if
                Summary.local_reach summary stub
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
                let stub_key = Ref_key.make ~src:(proc_id t) ~target:stub_target in
                (* One merge of the delivered run with the stub's
                   ScionsTo dependencies, ascending as the summary keeps
                   them, and the stub itself. *)
                let sources push =
                  Summary.fold_scions_to summary stub
                    (fun dep () ->
                      match Summary.find_scion summary dep with
                      | Some dep_scion -> push dep ~ic:(Summary.scion_ic summary dep_scion)
                      | None -> () (* cannot happen for a coherent summary *))
                    ()
                in
                match
                  Algebra.derive delivered ~sources ~target:stub_key
                    ~ic:(Summary.stub_ic summary stub)
                with
                | Algebra.Derived alg -> (stub_key, alg) :: acc
                | Algebra.No_new_info ->
                    (* No new information: the derivation would loop
                       forever re-announcing the same dependency. *)
                    Stats.incr t.rt.Runtime.stats "dcda.branch.no_new_info";
                    acc
                | Algebra.Conflicting -> raise (Stop ic_conflict)
              end)
        []
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
  | None -> abort t id no_summary
  | Some summary -> (
      let arrival = cdm.Cdm.frontier in
      match Summary.find_scion summary arrival with
      | None ->
          (* Safety rule 1: stub without corresponding scion in the
             published snapshot — ignore the CDM. *)
          abort t id missing_scion
      | Some scion -> (
          let scion_ic = Summary.scion_ic summary scion in
          (* Safety rule 3 (delivery-time form): the stub-side counter
             travelled in the CDM's target set; compare it with the
             scion-side counter in our snapshot. *)
          let stub_side_ic = Algebra.ic cdm.Cdm.algebra Algebra.Target arrival in
          match stub_side_ic with
          | Some ic
            when ic <> scion_ic
                 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") ->
              abort t id ic_mismatch_delivery
          | None -> abort t id malformed_cdm
          | Some _ ->
              if
                Summary.target_locally_reachable summary scion
                && not (Adgc_util.Mc_mutate.enabled "ignore_local_reach")
              then abort t id locally_reachable
              else begin
                (* The skip_ic_guards mutant trusts the counter that
                   travelled in the CDM over the snapshot's own — and
                   keeps whichever value arrived first on a conflict. *)
                let arrival_ic =
                  if Adgc_util.Mc_mutate.enabled "skip_ic_guards" then
                    match stub_side_ic with Some ic -> ic | None -> scion_ic
                  else scion_ic
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
                | Algebra.Ic_conflict _ -> abort t id ic_conflict
                | Algebra.Added alg -> (
                    match Algebra.verdict alg with
                    | Algebra.Conflict -> abort t id ic_mismatch_matching
                    | Algebra.Counts { unresolved = 0; frontier = 0 } ->
                        conclude t ~id ~algebra:alg ~hops:cdm.Cdm.hops
                    | Algebra.Counts { unresolved = _; frontier = 0 }
                      when Adgc_util.Mc_mutate.enabled "conclude_ignores_unresolved" ->
                        (* Gauntlet mutant: declare victory while scion
                           dependencies are still untraversed — an
                           external holder of the "cycle" (paper Fig. 1)
                           is exactly such a dependency. *)
                        conclude t ~id ~algebra:alg ~hops:cdm.Cdm.hops
                    | Algebra.Counts _ ->
                        proceed_from t summary ~id ~delivered:alg ~scion ~hops:cdm.Cdm.hops
                          ~budget:cdm.Cdm.budget)
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

(* Start a detection from the published scion of rank [scion], whose
   key is [key]. *)
let initiate_from t summary ~scion key =
  if Summary.target_locally_reachable summary scion then false
  else if
    (* Gauntlet mutant: never retry a candidate — a detection
       whose CDM was lost then starves forever, breaking the
       paper's resilience-to-message-loss claim. *)
    Ref_key.Tbl.mem t.candidates key
    && Adgc_util.Mc_mutate.enabled "no_reinitiation"
  then false
  else begin
    let id = Detection_id.make ~initiator:(proc_id t) ~seq:t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let now = Runtime.now t.rt in
    (match Ref_key.Tbl.find_opt t.candidates key with
    | Some c ->
        c.last <- now;
        c.attempts <- c.attempts + 1
    | None -> Ref_key.Tbl.add t.candidates key { last = now; attempts = 1 });
    Stats.incr t.rt.Runtime.stats "dcda.detections_started";
    let lineage = t.rt.Runtime.lineage in
    if Lineage.enabled lineage then begin
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
    let alg =
      Algebra.add_exn Algebra.empty Algebra.Source key ~ic:(Summary.scion_ic summary scion)
    in
    proceed_from t summary ~id ~delivered:alg ~scion ~hops:0
      ~budget:t.policy.Policy.cdm_budget;
    true
  end

let initiate t key =
  match t.summary with
  | None -> false
  | Some summary -> (
      match Summary.find_scion summary key with
      | None -> false
      | Some scion -> initiate_from t summary ~scion key)

(* Pick this round's candidates and start a detection per pick.  The
   source is the published summary: its scions whose target is not
   locally reachable, in ascending key order, so it is exactly as
   stale as the summary.  The walk starts just past the cursor (at the
   lowest key before the first pick) and wraps around; it keeps the
   scions that pass the policy filters and stops at [max_per_scan]
   picks.  The cursor moves to the last pick.  A candidate's cooldown
   doubles per fruitless initiation, up to 32x. *)
let scan t =
  match t.summary with
  | None -> 0
  | Some summary ->
      let now = Runtime.now t.rt in
      let eligible i =
        (not (Summary.target_locally_reachable summary i))
        && now - Summary.last_invoked summary i >= t.policy.Policy.idle_threshold
        &&
        match Ref_key.Tbl.find_opt t.candidates (Summary.scion_key summary i) with
        | Some c -> now - c.last >= t.policy.Policy.cooldown * (1 lsl Int.min 5 c.attempts)
        | None -> true
      in
      let n = fst (Summary.counts summary) in
      let start =
        match t.scan_cursor with Some cursor -> Summary.scion_after summary cursor | None -> 0
      in
      (* The picks, last first. *)
      let rec walk step picked count =
        if step = n || count >= t.policy.Policy.max_per_scan then picked
        else
          let i = (start + step) mod n in
          if eligible i then walk (step + 1) (i :: picked) (count + 1)
          else walk (step + 1) picked count
      in
      let picked = walk 0 [] 0 in
      (match picked with
      | last :: _ -> t.scan_cursor <- Some (Summary.scion_key summary last)
      | [] -> ());
      List.fold_left
        (fun acc scion ->
          let key = Summary.scion_key summary scion in
          if initiate_from t summary ~scion key then acc + 1 else acc)
        0 (List.rev picked)

let scan_cursor t = t.scan_cursor

let attach rt proc ~policy =
  let t =
    {
      rt;
      proc;
      policy;
      summary = None;
      next_seq = 0;
      candidates = Ref_key.Tbl.create 16;
      scan_cursor = None;
      reports = [];
    }
  in
  proc.Process.on_cdm <- Some (handle_cdm t);
  proc.Process.on_cdm_delete <- Some (handle_cdm_delete t);
  t
