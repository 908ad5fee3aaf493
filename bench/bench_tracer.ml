(* Tracer section: dense-id heap tracing, the condensed snapshot,
   stub-set processing, DGC message batching and the clean-poll
   staleness guard. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Runtime = Adgc_rt.Runtime
module Mutator = Adgc_rt.Mutator
module Heap = Adgc_rt.Heap
module Reflist = Adgc_rt.Reflist
module Scion_table = Adgc_rt.Scion_table
module Summarize = Adgc_snapshot.Summarize
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
open Adgc_algebra
open Bench_common

let build_tracer_cluster ~objects =
  let cluster = Cluster.create ~n:2 () in
  let rng = Adgc_util.Rng.create 29 in
  let _built =
    Topology.random cluster ~rng ~objects ~edges:(2 * objects) ~remote_prob:0.05
      ~root_prob:0.02
  in
  cluster

let build_tracer_heap ~objects = Cluster.proc (build_tracer_cluster ~objects) 0

(* One snapshot of the 2,000-object tracer heap: the minor words of
   one [Snapshot_store.take], after a first take has sized the
   summarizer's scratch and the store's counters, the words the
   published summary keeps reachable, and its bytes.  All three are
   functions of the heap alone. *)
let snapshot_words () =
  let cluster = build_tracer_cluster ~objects:2_000 in
  let store = Adgc_snapshot.Snapshot_store.create (Cluster.rt cluster) in
  let p = Cluster.proc cluster 0 in
  ignore (Adgc_snapshot.Snapshot_store.take store p : Adgc_snapshot.Summary.t);
  let before = Gc.minor_words () in
  let summary = Adgc_snapshot.Snapshot_store.take store p in
  let minor = Gc.minor_words () -. before in
  ( minor,
    float_of_int (Obj.reachable_words (Obj.repr summary)),
    float_of_int (String.length (Adgc_snapshot.Summary.bytes summary)) )

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

(* One owner whose [holders] holders hold 30 confirmed scions each.
   A sample is the mean cost, in microseconds, of one stub set from
   one holder that lists its 30 targets again (confirming them all,
   deleting none): the work should track that holder's scions, not
   the owner's whole table. *)
let stub_set_apply_us ~holders ~reps =
  let per_holder = 30 and batch = 1_000 in
  let owner = Proc_id.of_int 0 in
  let scions = Scion_table.create ~owner in
  let listing h = Array.init per_holder (fun k -> (h * per_holder) + k) in
  let ics = Array.make per_holder 0 in
  for h = 1 to holders do
    let src = Proc_id.of_int h in
    let serials = listing h in
    Array.iter
      (fun serial ->
        let target = Oid.make ~owner ~serial in
        ignore (Scion_table.ensure scions ~now:0 (Ref_key.make ~src ~target) : Scion_table.entry))
      serials;
    ignore
      (Scion_table.apply_new_set scions ~now:0 ~src ~seqno:0 ~serials ~ics : Scion_table.apply_result)
  done;
  let src = Proc_id.of_int 1 and serials = listing 1 in
  let seqno = ref 0 in
  times ~reps (fun () ->
      for _ = 1 to batch do
        incr seqno;
        ignore
          (Scion_table.apply_new_set scions ~now:0 ~src ~seqno:!seqno ~serials ~ics
            : Scion_table.apply_result)
      done)
  |> List.map (fun ms -> ms *. 1000.0 /. float_of_int batch)

(* The allocation of one stub-set round on a forest-shaped process:
   P0 holds [per_owner] stubs into each of [owners] processes.  The
   minor words of one [Reflist.send_new_sets], after a first round has
   cleared the fresh marks and the network has drained: what building
   and sending [owners] sets costs, a function of the table alone. *)
let stub_set_round_words ~owners =
  let per_owner = 20 in
  let cluster = Cluster.create ~n:(owners + 1) () in
  let p = Cluster.proc cluster 0 in
  for owner = 1 to owners do
    for _ = 1 to per_owner do
      let target = Mutator.alloc cluster ~proc:owner () in
      ignore (Adgc_rt.Stub_table.ensure p.Adgc_rt.Process.stubs ~now:0 target.Heap.oid
               : Adgc_rt.Stub_table.entry)
    done
  done;
  let rt = Cluster.rt cluster in
  Reflist.send_new_sets rt p;
  ignore (Cluster.drain cluster : int);
  let before = Gc.minor_words () in
  Reflist.send_new_sets rt p;
  Gc.minor_words () -. before

(* One advertisement round on a fully-wired clique: every process holds
   a reference into every other, so each (src, dst) pair carries one
   stub set plus one scion probe per round — exactly the traffic the
   batcher coalesces.  Returns the DGC payloads queued, the envelopes
   that carried them and their bytes. *)
let batching_round () =
  let n = 16 in
  let net_config = Network.default_config () in
  net_config.Network.account_bytes <- true;
  net_config.Network.latency_min <- 1;
  net_config.Network.latency_max <- 1;
  let config = { (Runtime.default_config ()) with Runtime.dgc_window = 5 } in
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
  let get = Stats.get stats in
  let sent0 = get "net.msg.sent" and bytes0 = get "net.bytes" in
  let flushes0 = get "net.msg.batch_flushes" and batched0 = get "net.msg.batched" in
  Array.iter
    (fun p ->
      Reflist.send_new_sets rt p;
      Reflist.probe_idle_scions rt p ~threshold:1)
    rt.Runtime.procs;
  ignore (Cluster.drain cluster : int);
  let envelopes = get "net.msg.sent" - sent0 in
  let flushes = get "net.msg.batch_flushes" - flushes0 in
  let batched = get "net.msg.batched" - batched0 in
  (* A batch envelope stands for the payloads inside it; every other
     envelope carried one. *)
  (envelopes - flushes + batched, envelopes, get "net.bytes" - bytes0)

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
  let minor, retained, bytes = snapshot_words () in
  Printf.printf
    "one snapshot of the 2000-object heap: %.0f minor words, %.0f words retained, %.0f bytes\n"
    minor retained bytes;
  let sconfig = [ "tracer.snapshot"; "2000" ] in
  det recorder ~section:"tracer" ~name:"tracer.snapshot.minor_words.2000" ~unit_:"words"
    ~config:sconfig minor;
  det recorder ~section:"tracer" ~name:"tracer.snapshot.retained_words.2000" ~unit_:"words"
    ~config:sconfig retained;
  det recorder ~section:"tracer" ~name:"tracer.snapshot.bytes.2000" ~unit_:"bytes"
    ~config:sconfig bytes;
  let owners = 32 in
  let round_words = stub_set_round_words ~owners in
  Printf.printf "one stub-set round of %d owners x 20 stubs: %.0f minor words\n" owners round_words;
  det recorder ~section:"tracer"
    ~name:(Printf.sprintf "tracer.stub_set.round_minor_words.%d" owners)
    ~unit_:"words"
    ~config:[ "tracer.stub_set.round"; string_of_int owners; "20" ]
    round_words;
  let holder_counts = [ 32; 256 ] in
  let stub_sets =
    List.map (fun holders -> (holders, stub_set_apply_us ~holders ~reps:(if smoke () then 5 else 9)))
      holder_counts
  in
  Table.print ~header:[ "holders x 30 scions"; "one stub set" ]
    ~rows:
      (List.map
         (fun (holders, us) -> [ string_of_int holders; Printf.sprintf "%.2f us" (median us) ])
         stub_sets)
    ();
  List.iter
    (fun (holders, us) ->
      timing recorder ~section:"tracer"
        ~name:(Printf.sprintf "tracer.stub_set.apply_us.%d" holders)
        ~unit_:"us"
        ~config:[ "tracer.stub_set"; string_of_int holders; "30"; string_of_int (List.length us) ]
        us)
    stub_sets;
  let payloads, msgs, bytes = batching_round () in
  let reduction = 100.0 *. (1.0 -. (float_of_int msgs /. float_of_int payloads)) in
  Printf.printf
    "batching (16-proc clique, one stub-set + probe round):\n\
    \  %d payloads in %d msgs, %d bytes\n\
    \  message reduction: %.1f%%\n"
    payloads msgs bytes reduction;
  let bconfig = [ "tracer.batching"; "16"; "window=5" ] in
  let d name unit_ v = det recorder ~section:"tracer" ~name ~unit_ ~config:bconfig v in
  d "tracer.batching.payloads" "msgs" (float_of_int payloads);
  d "tracer.batching.msgs" "msgs" (float_of_int msgs);
  d "tracer.batching.bytes" "bytes" (float_of_int bytes);
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
