open Adgc_algebra
module Rng = Adgc_util.Rng
module Stats = Adgc_util.Stats
module Trace = Adgc_util.Trace

module Span = Adgc_obs.Span
module Lineage = Adgc_obs.Lineage

type t = {
  rt : Runtime.t;
  mutable gc_lanes : Scheduler.lane list;
  mutable teardown_hooks : (unit -> unit) list;
  mutable torn_down : bool;
  (* Cached globally-live marks (per-process bytes indexed by dense
     id) with the staleness signature and dense generations they were
     computed under — see [live_marks] below.  [live_sig = min_int]
     means no cache. *)
  mutable live_marks : Bytes.t array;
  mutable live_sig : int;
  mutable live_gens : int array;
}

let crash_proc rt i =
  let p = Runtime.proc rt (Proc_id.of_int i) in
  if p.Process.alive then begin
    p.Process.alive <- false;
    Stats.incr rt.Runtime.stats "cluster.crashes";
    Runtime.log rt ~topic:"cluster" "%a crashed" Proc_id.pp p.Process.id
  end

let restart_proc rt i =
  let p = Runtime.proc rt (Proc_id.of_int i) in
  if not p.Process.alive then begin
    p.Process.alive <- true;
    (* Crash-recovery model: heap, stubs and scions survived in the
       persistent store.  Reset the holder-silence clocks so the
       downtime is not immediately read as every holder's crash by
       failure detection; the periodic duties (guarded per firing on
       [alive]) resume by themselves. *)
    Scion_table.touch_all_sources p.Process.scions ~now:(Scheduler.now rt.Runtime.sched);
    (* Restart is a quiescence point for this process's inbound links
       (nothing was accepted while down), so the duplicate-suppression
       table can be truncated to per-sender floors here; unbounded
       crash/restart runs otherwise grow it forever. *)
    let pruned = Process.prune_delivered p in
    if pruned > 0 then Stats.add rt.Runtime.stats "cluster.delivered_pruned" pruned;
    Stats.incr rt.Runtime.stats "cluster.restarts";
    Runtime.log rt ~topic:"cluster" "%a restarted" Proc_id.pp p.Process.id
  end

let create ?(seed = 42) ?config ?net_config ?(faults = Faults.none) ?trace_capacity
    ?(telemetry = false) ?span_capacity ~n () =
  if n <= 0 then invalid_arg "Cluster.create: need at least one process";
  let config = match config with Some c -> c | None -> Runtime.default_config () in
  let net_config = match net_config with Some c -> c | None -> Network.default_config () in
  if telemetry then net_config.Network.per_link_bytes <- true;
  let rng = Rng.create seed in
  let sched = Scheduler.create () in
  let stats = Stats.create () in
  let trace = Trace.create ?capacity:trace_capacity () in
  Trace.set_enabled trace false;
  let obs = Span.create ?capacity:span_capacity () in
  let lineage = Lineage.create () in
  Span.set_enabled obs telemetry;
  Lineage.set_enabled lineage telemetry;
  let net = Network.create ~faults ~sched ~rng:(Rng.split rng) ~stats ~config:net_config () in
  let procs =
    Array.init n (fun i -> Process.create ~id:(Proc_id.of_int i) ~rng:(Rng.split rng))
  in
  let rt = Runtime.create ~sched ~net ~procs ~rng ~stats ~trace ~obs ~lineage ~config () in
  rt.Runtime.run_span <- Span.begin_span obs ~time:0 ~kind:Span.Run "run";
  Network.set_deliver net (Dispatch.deliver rt);
  List.iter
    (function
      | Faults.Crash { proc; at } -> Scheduler.schedule_at sched ~time:at (fun () -> crash_proc rt proc)
      | Faults.Restart { proc; at } ->
          Scheduler.schedule_at sched ~time:at (fun () -> restart_proc rt proc)
      | Faults.Partition _ -> (* the network schedules these *) ())
    faults.Faults.events;
  {
    rt;
    gc_lanes = [];
    teardown_hooks = [];
    torn_down = false;
    live_marks = [||];
    live_sig = min_int;
    live_gens = [||];
  }

let rt t = t.rt

let sched t = t.rt.Runtime.sched

let net t = t.rt.Runtime.net

let stats t = t.rt.Runtime.stats

let trace t = t.rt.Runtime.trace

let obs t = t.rt.Runtime.obs

let lineage t = t.rt.Runtime.lineage

let proc t i = t.rt.Runtime.procs.(i)

let proc_id _t i = Proc_id.of_int i

let n_procs t = Array.length t.rt.Runtime.procs

let now t = Scheduler.now (sched t)

let run_for t delay = Scheduler.run_for (sched t) ~delay

let run_until t ~time = Scheduler.run_until (sched t) ~time

let drain ?limit t = Scheduler.drain ?limit (sched t)

let add_lanes t lanes = t.gc_lanes <- t.gc_lanes @ lanes

let stop_gc t =
  List.iter Scheduler.cancel_lane t.gc_lanes;
  t.gc_lanes <- []

let at_teardown t hook = t.teardown_hooks <- hook :: t.teardown_hooks

let torn_down t = t.torn_down

let teardown t =
  if not t.torn_down then begin
    t.torn_down <- true;
    stop_gc t;
    (* Hooks run newest-first (reverse registration order), each at
       most once: checkers registered by Oracle/Metrics detach here
       so nothing keeps firing on a dismantled cluster. *)
    let hooks = t.teardown_hooks in
    t.teardown_hooks <- [];
    List.iter (fun hook -> hook ()) hooks;
    Span.end_span t.rt.Runtime.obs
      ~time:(Scheduler.now t.rt.Runtime.sched)
      t.rt.Runtime.run_span
  end

let crash t i = crash_proc t.rt i

let restart t i = restart_proc t.rt i

let alive t i = (proc t i).Process.alive

(* Dead processes contribute nothing to ground truth: their objects
   are wreckage, their roots gone. *)
let total_objects t =
  Array.fold_left
    (fun acc p -> if p.Process.alive then acc + Heap.size p.Process.heap else acc)
    0 t.rt.Runtime.procs

(* The one ground-truth global tracer: seeds are all local roots plus
   the references in-flight messages keep importable ([Msg.live_refs]
   — notably an RMI reply's target field is excluded, it is never
   imported; the network maintains that multiset incrementally).  The
   fixpoint buckets the remote frontier per owner and re-enters each
   heap {e without} resetting its visited marks ([trace_dense
   ~reset:false] after the first visit), so across all rounds every
   object is traced exactly once and nothing but the per-round seed
   lists is allocated — at a thousand processes and millions of
   objects this is what keeps the oracle's clean-poll affordable.
   [visit i id] receives each live local object (by owner index and
   dense id) exactly once. *)
let trace_globally_live t ~visit =
  Stats.incr t.rt.Runtime.stats "cluster.global_traces";
  let procs = t.rt.Runtime.procs in
  let n = Array.length procs in
  let buckets = Array.make n [] in
  let pending = ref 0 in
  let push oid =
    let owner = Proc_id.to_int (Oid.owner oid) in
    if owner >= 0 && owner < n then begin
      buckets.(owner) <- oid :: buckets.(owner);
      incr pending
    end
  in
  Array.iter
    (fun p -> if p.Process.alive then List.iter push (Heap.roots p.Process.heap))
    procs;
  Network.iter_in_flight_live_refs (net t) push;
  let started = Array.make n false in
  while !pending > 0 do
    pending := 0;
    for i = 0 to n - 1 do
      match buckets.(i) with
      | [] -> ()
      | seeds ->
          buckets.(i) <- [];
          let p = procs.(i) in
          if p.Process.alive then begin
            let reset = not started.(i) in
            started.(i) <- true;
            Heap.trace_dense ~reset p.Process.heap ~from:seeds
              ~visit_local:(fun id -> visit i id)
              ~visit_remote:push
          end
    done
  done

let globally_live t =
  let live = ref Oid.Set.empty in
  trace_globally_live t ~visit:(fun i id ->
      live := Oid.Set.add (Heap.dense_oid t.rt.Runtime.procs.(i).Process.heap id) !live);
  !live

let garbage_count t =
  (* Same fixpoint, but only counting: garbage on each alive heap is
     its population minus the objects the global trace reached there.
     No sets, no oid materialization — the run-until-clean poll's
     fast path. *)
  let procs = t.rt.Runtime.procs in
  let live_counts = Array.make (Array.length procs) 0 in
  trace_globally_live t ~visit:(fun i _id -> live_counts.(i) <- live_counts.(i) + 1);
  let total = ref 0 in
  Array.iteri
    (fun i p ->
      if p.Process.alive then total := !total + Heap.size p.Process.heap - live_counts.(i))
    procs;
  !total

(* The message kinds whose payloads can carry importable references —
   the in-flight population of these is part of the reachability
   inputs, so their send/deliver/drop counters belong in every
   liveness staleness signature.  A [Batch] is ref-free by
   construction ([Runtime.send_dgc] refuses payloads with references,
   the decoder refuses such constituents).  The group envelopes are
   ref-free in practice too, only ref-free DGC control payloads are
   relayed, but the message type permits refs inside them so they stay
   in the conservative set.  [Sim.run_until_clean] shares this
   list. *)
let ref_carrying_kinds =
  [ "rmi_request"; "rmi_reply"; "export_notice"; "export_ack"; "group_fwd"; "group_relay" ]

(* Staleness signature for the live-mark cache: every component is a
   monotonic counter, so the sum strictly grows on any change and two
   equal readings prove every input to global reachability — roots,
   edges, allocations, in-flight references, crash state — is
   untouched.  Crucially it folds [Heap.live_mutations], {e not}
   [Heap.mutations]: removals are excluded, because a (safe) sweep
   deletes only garbage and therefore cannot move the globally-live
   set.  That is what lets hundreds of staggered per-process sweeps
   validate against one trace instead of one trace each. *)
let live_signature t =
  let stats = t.rt.Runtime.stats in
  let acc = ref 0 in
  Array.iter (fun p -> acc := !acc + Heap.live_mutations p.Process.heap) t.rt.Runtime.procs;
  acc := !acc + Stats.get stats "cluster.crashes" + Stats.get stats "cluster.restarts";
  List.iter
    (fun kind ->
      List.iter
        (fun ev -> acc := !acc + Stats.get stats ("net.msg." ^ ev ^ "." ^ kind))
        [ "sent"; "delivered"; "dropped" ])
    ref_carrying_kinds;
  !acc

(* Cached globally-live marks: per-process byte arrays indexed by
   dense id, recomputed only when [live_signature] moved or an
   interner rebuild reassigned some heap's dense ids (ids are
   append-only otherwise, so removals leave existing marks
   index-valid).  The exactness argument is inductive: the marks are
   exact when computed, and every event that could change the live
   set bumps the signature — except a sweep, which (if safe) deletes
   only garbage.  An {e unsafe} sweep is precisely what the pre-sweep
   hooks catch against these marks before it happens, so the first
   violation is always judged against exact ground truth. *)
let live_marks t =
  let procs = t.rt.Runtime.procs in
  let n = Array.length procs in
  let s = live_signature t in
  (* Sync before judging validity: a pending resync may rebuild the
     interner, and generations must be read post-sync. *)
  let gens = Array.make n (-1) in
  Array.iteri
    (fun i p ->
      if p.Process.alive then begin
        ignore (Heap.dense_sync p.Process.heap : int);
        gens.(i) <- Heap.dense_generation p.Process.heap
      end)
    procs;
  if s = t.live_sig && t.live_gens = gens && Array.length t.live_marks = n then begin
    Stats.incr t.rt.Runtime.stats "cluster.live_checks.cached";
    t.live_marks
  end
  else begin
    let marks =
      Array.init n (fun i ->
          let p = procs.(i) in
          if p.Process.alive then Bytes.make (Heap.dense_sync p.Process.heap) '\000'
          else Bytes.empty)
    in
    trace_globally_live t ~visit:(fun i id ->
        if id < Bytes.length marks.(i) then Bytes.unsafe_set marks.(i) id '\001');
    t.live_marks <- marks;
    t.live_gens <- gens;
    t.live_sig <- s;
    marks
  end

let live_mem t marks oid =
  let procs = t.rt.Runtime.procs in
  let i = Proc_id.to_int (Oid.owner oid) in
  i >= 0
  && i < Array.length procs
  && procs.(i).Process.alive
  &&
  match Heap.dense_id procs.(i).Process.heap oid with
  | Some id -> id < Bytes.length marks.(i) && Bytes.get marks.(i) id = '\001'
  | None -> false

let live_among t oids =
  match oids with
  | [] -> []
  | _ ->
      let marks = live_marks t in
      List.filter (fun oid -> live_mem t marks oid) oids

let live_predicate t =
  let marks = live_marks t in
  fun oid -> live_mem t marks oid

let garbage t =
  let live = globally_live t in
  Array.fold_left
    (fun acc p ->
      if not p.Process.alive then acc
      else
        Heap.fold p.Process.heap ~init:acc ~f:(fun acc obj ->
            if Oid.Set.mem obj.Heap.oid live then acc else Oid.Set.add obj.Heap.oid acc))
    Oid.Set.empty t.rt.Runtime.procs
