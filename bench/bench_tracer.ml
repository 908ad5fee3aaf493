(* Tracer section: dense-id heap tracing, the condensed snapshot, DGC
   message batching and the clean-poll staleness guard. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Runtime = Adgc_rt.Runtime
module Mutator = Adgc_rt.Mutator
module Heap = Adgc_rt.Heap
module Reflist = Adgc_rt.Reflist
module Summarize = Adgc_snapshot.Summarize
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
open Bench_common

let build_tracer_heap ~objects =
  let cluster = Cluster.create ~n:2 () in
  let rng = Adgc_util.Rng.create 29 in
  let _built =
    Topology.random cluster ~rng ~objects ~edges:(2 * objects) ~remote_prob:0.05
      ~root_prob:0.02
  in
  Cluster.proc cluster 0

let tracer_case ~objects ~reps =
  let p = build_tracer_heap ~objects in
  let heap = p.Adgc_rt.Process.heap in
  let roots = Heap.roots heap in
  let dense =
    times ~reps (fun () -> ignore (Heap.trace heap ~from:roots : Heap.trace_result))
  in
  let snap_dense =
    times ~reps (fun () -> ignore (Summarize.run ~now:0 p : Adgc_snapshot.Summary.t))
  in
  (dense, snap_dense)

(* One advertisement round on a fully-wired clique: every process holds
   a reference into every other, so each (src, dst) pair carries one
   stub set plus one scion probe per round — exactly the traffic the
   batcher coalesces. *)
let batching_round ~batching =
  let n = 16 in
  let net_config = Network.default_config () in
  net_config.Network.account_bytes <- true;
  net_config.Network.latency_min <- 1;
  net_config.Network.latency_max <- 1;
  let config =
    { (Runtime.default_config ()) with Runtime.dgc_batching = batching; dgc_batch_window = 5 }
  in
  let cluster = Cluster.create ~config ~net_config ~n () in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if p <> q then begin
        let holder = Mutator.alloc cluster ~proc:p () in
        Mutator.add_root cluster holder;
        let target = Mutator.alloc cluster ~proc:q () in
        Mutator.add_root cluster target;
        Mutator.wire_remote cluster ~holder ~target
      end
    done
  done;
  Cluster.run_for cluster 100;
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let sent0 = Stats.get stats "net.msg.sent" in
  let bytes0 = Stats.get stats "net.bytes" in
  Array.iter
    (fun p ->
      Reflist.send_new_sets rt p;
      Reflist.probe_idle_scions rt p ~threshold:1)
    rt.Runtime.procs;
  ignore (Cluster.drain cluster : int);
  ( Stats.get stats "net.msg.sent" - sent0,
    Stats.get stats "net.bytes" - bytes0,
    Stats.get stats "net.msg.batched",
    Stats.get stats "net.msg.batch_flushes" )

let run recorder =
  section "tracer: dense-id tracing, condensed snapshot, DGC batching";
  let sizes = if smoke () then [ 2_000 ] else [ 10_000; 100_000 ] in
  let reps objects = if smoke () then 3 else if objects >= 100_000 then 5 else 9 in
  let cases =
    List.map (fun objects -> (objects, tracer_case ~objects ~reps:(reps objects))) sizes
  in
  let rows =
    List.map
      (fun (objects, (dense, snap_dense)) ->
        [
          string_of_int objects;
          Printf.sprintf "%.2f ms" (median dense);
          Printf.sprintf "%.2f ms" (median snap_dense);
        ])
      cases
  in
  Table.print ~header:[ "objects"; "trace"; "snapshot" ] ~rows ();
  List.iter
    (fun (objects, (dense, snap_dense)) ->
      let config =
        [ "tracer"; string_of_int objects; string_of_int (reps objects);
          string_of_bool (smoke ()) ]
      in
      let t name values =
        timing recorder ~section:"tracer"
          ~name:(Printf.sprintf "tracer.%s.%d" name objects)
          ~unit_:"ms" ~config values
      in
      t "trace.dense_ms" dense;
      t "snapshot.dense_ms" snap_dense)
    cases;
  let plain_msgs, plain_bytes, _, _ = batching_round ~batching:false in
  let batched_msgs, batched_bytes, payloads, flushes = batching_round ~batching:true in
  let reduction =
    100.0 *. (1.0 -. (float_of_int batched_msgs /. float_of_int plain_msgs))
  in
  Printf.printf
    "batching (16-proc clique, one stub-set + probe round):\n\
    \  off: %d msgs, %d bytes    on: %d msgs, %d bytes (%d payloads in %d batches)\n\
    \  message reduction: %.0f%%\n"
    plain_msgs plain_bytes batched_msgs batched_bytes payloads flushes reduction;
  let bconfig = [ "tracer.batching"; "16"; "window=5" ] in
  let d name ?direction v =
    det recorder ~section:"tracer" ~name ?direction ~unit_:"msgs" ~config:bconfig v
  in
  d "tracer.batching.off_msgs" (float_of_int plain_msgs);
  d "tracer.batching.on_msgs" (float_of_int batched_msgs);
  det recorder ~section:"tracer" ~name:"tracer.batching.off_bytes" ~unit_:"bytes"
    ~config:bconfig (float_of_int plain_bytes);
  det recorder ~section:"tracer" ~name:"tracer.batching.on_bytes" ~unit_:"bytes"
    ~config:bconfig (float_of_int batched_bytes);
  det recorder ~section:"tracer" ~name:"tracer.batching.msg_reduction_pct" ~unit_:"%"
    ~direction:Sample.Higher_better ~config:bconfig reduction;
  (* Clean-poll staleness guard: run a full collection to quiescence
     and count how many ground-truth traces the signature check saved
     versus a guardless poll-every-step loop. *)
  let sim = Sim.create ~config:(Config.quick ~seed:31 ~n_procs:8 ()) () in
  let cluster2 = Sim.cluster sim in
  let _ = Topology.ring cluster2 ~procs:[ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Sim.start sim;
  let clean = Sim.run_until_clean ~step:100 ~max_time:300_000 sim in
  let traces = Stats.get (Sim.stats sim) "sim.clean_checks" in
  let skips = Stats.get (Sim.stats sim) "sim.clean_checks.skipped" in
  Sim.teardown sim;
  let saved_pct = 100.0 *. float_of_int skips /. float_of_int (Int.max 1 (traces + skips)) in
  Printf.printf
    "clean-poll staleness guard (8-proc ring to quiescence%s):\n\
    \  %d ground-truth traces computed, %d quiet polls skipped (%.0f%% saved)\n"
    (if clean then "" else ", BUDGET EXHAUSTED")
    traces skips saved_pct;
  let cconfig = [ "tracer.clean_poll"; "seed=31"; "procs=8" ] in
  det recorder ~section:"tracer" ~name:"tracer.clean_poll.traces_computed" ~unit_:"traces"
    ~config:cconfig (float_of_int traces);
  det recorder ~section:"tracer" ~name:"tracer.clean_poll.saved_pct" ~unit_:"%"
    ~direction:Sample.Higher_better ~config:cconfig saved_pct
