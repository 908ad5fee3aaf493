(* One DGC route, two timings.  Every control payload travels through
   the per-destination batch queue in [Runtime.send_dgc]; [dgc_window]
   only decides how long it waits there ([0]: it leaves inside
   [send_dgc] itself, one plain message per payload).  The window must
   not change what gets reclaimed: the same workload run synchronously
   and batched ends with identical surviving object sets (timing
   differs — identity is on the final sets after both runs converge).
   Under the DCDA the batched run must really coalesce payloads: CDMs
   join the stub sets and probes in the queues.  The back-tracing
   comparator sends its own traffic plainly, off the DGC route, and
   its stub sets and probes leave on different duty ticks, so its
   column pins that the window's delay alone changes nothing. *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Runtime = Adgc_rt.Runtime
module Heap = Adgc_rt.Heap
module Oid = Adgc_algebra.Oid
module Stats = Adgc_util.Stats
module Rng = Adgc_util.Rng

let check = Alcotest.check

let surviving cluster =
  let rt = Cluster.rt cluster in
  let acc = ref Oid.Set.empty in
  Array.iter
    (fun (p : Adgc_rt.Process.t) ->
      Heap.fold p.Adgc_rt.Process.heap ~init:() ~f:(fun () (o : Heap.obj) ->
          acc := Oid.Set.add o.Heap.oid !acc))
    rt.Runtime.procs;
  !acc

let run_leg ~seed ~detector ~window =
  let n_procs = 8 in
  let config = Detector_column.config detector (Config.quick ~seed ~n_procs ()) in
  let config =
    { config with Config.runtime = { config.Config.runtime with Runtime.dgc_window = window } }
  in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built =
    Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects:120 ~edges:240 ~remote_prob:0.35 ~root_prob:0.15
  in
  let built = Cluster.total_objects cluster in
  ignore (Detector_column.start detector sim);
  let clean = Sim.run_until_clean ~max_time:900_000 sim in
  let s = surviving cluster in
  let flushes = Stats.get (Sim.stats sim) "net.msg.batch_flushes" in
  Sim.teardown sim;
  (clean, s, flushes, built)

let identity_cell ~seed ~detector ~window () =
  let sync_clean, sync, sync_flushes, built = run_leg ~seed ~detector ~window:0 in
  let batched_clean, batched, batched_flushes, _ = run_leg ~seed ~detector ~window in
  check Alcotest.bool "synchronous run converged" true sync_clean;
  check Alcotest.bool "batched run converged" true batched_clean;
  Alcotest.(check bool)
    (Printf.sprintf "garbage was reclaimed (%d of %d survive)" (Oid.Set.cardinal sync) built)
    true
    (Oid.Set.cardinal sync < built);
  check Alcotest.int "synchronous run sends no batch" 0 sync_flushes;
  (match detector with
  | Detector_column.Dcda ->
      Alcotest.(check bool) "batched run coalesced payloads" true (batched_flushes > 0)
  | Detector_column.Backtrack -> ());
  check Alcotest.int "same number of survivors" (Oid.Set.cardinal sync)
    (Oid.Set.cardinal batched);
  check Alcotest.bool "identical surviving sets" true (Oid.Set.equal sync batched)

(* Two windows against the synchronous leg: the default (10 ticks,
   well under every duty period) and 100 ticks, long enough that a
   queue is still open when the next stub-set round or scan adds to
   it. *)
let identity_cases =
  let default_window = (Runtime.default_config ()).Runtime.dgc_window in
  List.concat_map
    (fun (wname, window) ->
      List.concat_map
        (fun seed ->
          List.map
            (fun detector ->
              Alcotest.test_case
                (Printf.sprintf "batched%s == synchronous: %s seed %d" wname
                   (Detector_column.name detector) seed)
                `Slow
                (identity_cell ~seed ~detector ~window))
            Detector_column.all)
        [ 5; 19; 33 ])
    [ ("", default_window); (" by 100", 100) ]

let suite = ("route", identity_cases)
