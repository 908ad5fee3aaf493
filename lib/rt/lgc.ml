open Adgc_algebra
module Stats = Adgc_util.Stats
module Mark = Adgc_util.Dense.Mark

type report = { live : int; swept : int; stubs_live : int; stubs_dropped : int }

(* The last trace's reached set, by dense id; reused across runs. *)
let reached = Mark.create ()

let is_reached heap (obj : Heap.obj) =
  match Heap.dense_id heap obj.Heap.oid with Some id -> Mark.is_marked reached id | None -> false

let run rt (p : Process.t) =
  let heap = p.Process.heap in
  let from =
    (* Gauntlet mutant: forgetting that scions are GC roots reclaims
       anything only remote holders can reach. *)
    if Adgc_util.Mc_mutate.enabled "lgc_ignores_scions" then Heap.roots heap
    else Heap.roots heap @ Scion_table.protected_targets p.Process.scions
  in
  (* Sweep from the trace's own marks: reached dense ids go into a
     reused bitset, stubs are marked live as the walk meets them, and
     the heap walk below dooms whatever is unmarked.  No per-object
     set is built. *)
  Mark.clear reached;
  Stub_table.mark_all_dead p.Process.stubs;
  Heap.trace_dense heap ~from
    ~visit_local:(fun id -> ignore (Mark.mark reached id : bool))
    ~visit_remote:(Stub_table.mark_live p.Process.stubs);
  let stubs_dropped = List.length (Stub_table.sweep p.Process.stubs) in
  let doomed =
    Heap.fold heap ~init:[] ~f:(fun acc obj ->
        if is_reached heap obj then acc else obj.Heap.oid :: acc)
  in
  Stats.incr rt.Runtime.stats "lgc.runs";
  Stats.add rt.Runtime.stats "dgc.stubs.dropped" stubs_dropped;
  (* The pre-sweep hook sees the doomed list before any object goes:
     the whole-system oracle reads every heap there. *)
  (match rt.Runtime.on_pre_sweep with
  | Some f when doomed <> [] -> f p.Process.id doomed
  | Some _ | None -> ());
  List.iter
    (fun oid ->
      Heap.remove heap oid;
      Stats.incr rt.Runtime.stats "lgc.swept";
      (match rt.Runtime.on_reclaim with Some f -> f p.Process.id oid | None -> ());
      Runtime.log rt ~topic:"lgc" "%a swept %a" Proc_id.pp p.Process.id Oid.pp oid)
    doomed;
  let report =
    {
      live = Heap.size heap;
      swept = List.length doomed;
      stubs_live = Stub_table.size p.Process.stubs;
      stubs_dropped;
    }
  in
  if Adgc_obs.Span.enabled rt.Runtime.obs then
    ignore
      (Adgc_obs.Span.event rt.Runtime.obs
         ~time:(Scheduler.now rt.Runtime.sched)
         ~parent:rt.Runtime.run_span
         ~proc:(Proc_id.to_int p.Process.id)
         ~args:
           [ ("live", string_of_int report.live); ("swept", string_of_int report.swept) ]
         ~kind:Adgc_obs.Span.Lgc_sweep
         (Printf.sprintf "lgc %s" (Proc_id.to_string p.Process.id))
        : int);
  report
