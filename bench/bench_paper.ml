(* The paper-evaluation sections (see DESIGN.md section 4 for the
   experiment index).  These regenerate the paper's tables and
   ablations for humans to read; they feed no samples to the perf
   recorder — the gated series live in the
   tracer/telemetry/net/detection/scale sections, and E6, E7 and E12
   print here from the functions that record theirs there.

   Absolute numbers differ from the paper (its substrate was a 1.6 GHz
   laptop running Rotor; ours is a simulator), but every table prints
   the same rows and the shapes are comparable; EXPERIMENTS.md records
   the side-by-side. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Runtime = Adgc_rt.Runtime
module Mutator = Adgc_rt.Mutator
module Heap = Adgc_rt.Heap
module Rmi = Adgc_rt.Rmi
module Detector = Adgc_dcda.Detector
module Policy = Adgc_dcda.Policy
module Summarize = Adgc_snapshot.Summarize
module Graph_image = Adgc_paper.Graph_image
module Rotor_codec = Adgc_paper.Rotor_codec
module Doc_codec = Adgc_paper.Doc_codec
module Pstore = Adgc_paper.Pstore
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
open Adgc_algebra
open Bench_common

(* ------------------------------------------------------------------ *)
(* E1 / Table 1: RMI cost, plain runtime vs DGC-extended.              *)

let run_rmi_batch ~dgc ~calls =
  let net_config = Network.default_config () in
  net_config.Network.latency_min <- 1;
  net_config.Network.latency_max <- 1;
  let config = { (Runtime.default_config ()) with Runtime.dgc_enabled = dgc; rmi_marshal = true } in
  let cluster = Cluster.create ~config ~net_config ~n:2 () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster callee;
  Mutator.wire_remote cluster ~holder:caller ~target:callee;
  (* Pre-allocate the 10 fresh argument objects of every call so the
     timed region is the invocation path itself, as in the paper's
     setup (arguments exist; exporting them is what is measured). *)
  let p0_heap = (Cluster.proc cluster 0).Adgc_rt.Process.heap in
  let args =
    Array.init calls (fun _ -> List.init 10 (fun _ -> (Mutator.alloc cluster ~proc:0 ()).Heap.oid))
  in
  Array.iter (fun l -> List.iter (Heap.add_root p0_heap) l) args;
  let rt = Cluster.rt cluster in
  let run () =
    for i = 0 to calls - 1 do
      (* Synchronous calls: the paper's client blocks on each of the
         series of invocations. *)
      Rmi.call rt ~src:(Proc_id.of_int 0) ~target:callee.Heap.oid ~args:args.(i)
        ~behavior:Mutator.store_args ();
      ignore (Cluster.drain cluster : int)
    done
  in
  let (), ms = wall_ms run in
  ms

let bench_table1 () =
  section "E1 / Table 1: RMI cost, original runtime vs DGC-extended";
  Printf.printf "(each call exports/imports 10 fresh references; client and server simulated)\n";
  let rows =
    List.map
      (fun calls ->
        (* Interleave the two modes and take medians of the paired
           measurements so host-level drift cancels out. *)
        ignore (run_rmi_batch ~dgc:false ~calls:5 : float);
        ignore (run_rmi_batch ~dgc:true ~calls:5 : float);
        let reps = if calls <= 100 then 11 else 7 in
        let pairs =
          List.init reps (fun _ ->
              Gc.compact ();
              let plain = run_rmi_batch ~dgc:false ~calls in
              let dgc = run_rmi_batch ~dgc:true ~calls in
              (plain, dgc))
        in
        let plain = median (List.map fst pairs) in
        let dgc = median (List.map snd pairs) in
        let overhead = median (List.map (fun (p, d) -> pct p d) pairs) in
        [
          string_of_int calls;
          Printf.sprintf "%.2f ms" plain;
          Printf.sprintf "%.2f ms" dgc;
          Printf.sprintf "%.2f%%" overhead;
        ])
      [ 10; 100; 500; 1000 ]
  in
  Table.print ~header:[ "# RMI calls"; "no DGC"; "with DGC"; "Variation" ] ~rows ();
  print_endline "paper (Rotor, P4-M 1.6GHz): 7.19% / 18.64% / 20.73% / 17.92% overhead"

(* ------------------------------------------------------------------ *)
(* E2: snapshot serialization (Rotor vs production codec, +/- stubs).  *)

let build_serialization_process ~objects ~with_stubs =
  let cluster = Cluster.create ~n:2 () in
  let p0 = Cluster.proc cluster 0 in
  let heap = p0.Adgc_rt.Process.heap in
  let chain = Array.init objects (fun _ -> Heap.alloc ~fields:2 ~payload:64 heap) in
  for i = 0 to objects - 2 do
    ignore (Heap.add_ref heap chain.(i) chain.(i + 1).Heap.oid : int)
  done;
  Heap.add_root heap chain.(0).Heap.oid;
  if with_stubs then begin
    (* One additional remote reference per object -> [objects] stubs,
       the paper's second configuration. *)
    let p1_heap = (Cluster.proc cluster 1).Adgc_rt.Process.heap in
    Array.iter
      (fun obj ->
        let remote = Heap.alloc ~fields:0 ~payload:8 p1_heap in
        Mutator.wire_remote cluster ~holder:obj ~target:remote)
      chain
  end;
  p0

let bench_serialization () =
  section "E2: snapshot (heap image) serialization";
  let objects = 10_000 in
  let codecs = [ ("rotor", Rotor_codec.encode); ("net", Doc_codec.encode) ] in
  let results = Hashtbl.create 8 in
  let rows =
    List.concat_map
      (fun (cname, encode) ->
        List.map
          (fun with_stubs ->
            let p = build_serialization_process ~objects ~with_stubs in
            let image = Graph_image.of_process ~include_stubs:with_stubs p in
            ignore (encode image : string);
            let samples =
              List.init 5 (fun _ ->
                  Gc.compact ();
                  wall_ms (fun () -> encode image))
            in
            let ms = median (List.map snd samples) in
            let encoded = fst (List.hd samples) in
            Hashtbl.replace results (cname, with_stubs) ms;
            [
              cname;
              (if with_stubs then Printf.sprintf "%d objs + %d stubs" objects objects
               else Printf.sprintf "%d objs" objects);
              Printf.sprintf "%.1f ms" ms;
              Printf.sprintf "%d bytes" (String.length encoded);
            ])
          [ false; true ])
      codecs
  in
  Table.print ~header:[ "codec"; "graph"; "serialize"; "size" ] ~rows ();
  let get k = Hashtbl.find results k in
  Printf.printf "stub surcharge (rotor): +%.0f%%   (paper: +73%%)\n"
    (pct (get ("rotor", false)) (get ("rotor", true)));
  Printf.printf "rotor / net ratio     : %.0fx    (paper: ~100x, 26037 ms vs 250-350 ms)\n"
    (get ("rotor", false) /. get ("net", false))

(* ------------------------------------------------------------------ *)
(* E6: detection cost vs cycle span.                                   *)

let bench_detection_scaling () =
  section "E6: detection cost vs cycle span (one distributed cycle)";
  let rows =
    List.map
      (fun span ->
        let latency, msgs, bytes, _, wall = Bench_detection.detect_ring ~span in
        [
          string_of_int span;
          Printf.sprintf "%d ticks" latency;
          string_of_int msgs;
          Printf.sprintf "%d B" bytes;
          Printf.sprintf "%.2f ms" wall;
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  Table.print
    ~header:[ "processes"; "detection latency"; "CDM msgs"; "CDM bytes"; "host wall" ]
    ~rows ();
  print_endline "expected shape: one CDM per hop (span msgs), latency linear in span,";
  print_endline "bytes slightly super-linear (the algebra grows by one entry per hop)"

(* ------------------------------------------------------------------ *)
(* E8: tolerance to message loss.                                      *)

let bench_loss () =
  section "E8: reclamation under message loss (ring of 8, 24 objects)";
  let rows =
    List.map
      (fun loss ->
        let config = Config.quick ~seed:7 ~n_procs:8 () in
        config.Config.net.Network.drop_prob <- loss;
        let sim = Sim.create ~config () in
        let _built =
          Topology.ring ~objs_per_proc:3 (Sim.cluster sim) ~procs:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        Sim.start sim;
        let clean = Sim.run_until_clean ~step:2_000 ~max_time:3_000_000 sim in
        let stats = Sim.stats sim in
        [
          Printf.sprintf "%.0f%%" (loss *. 100.0);
          (if clean then Printf.sprintf "%d ticks" (Sim.now sim) else "not reclaimed");
          string_of_int (Stats.get stats "dcda.detections_started");
          string_of_int (Stats.get stats "net.msg.dropped");
        ])
      [ 0.0; 0.05; 0.10; 0.20 ]
  in
  Table.print ~header:[ "loss"; "time to full reclamation"; "detections"; "msgs dropped" ] ~rows ();
  print_endline "safety is never at risk under loss; only reclamation latency grows"

(* ------------------------------------------------------------------ *)
(* E11: scion deletion modes (ablation of a design decision).          *)

let bench_deletion_modes () =
  section "E11: deletion mode after a proven cycle (fig. 4 mutual cycles)";
  let rows =
    List.map
      (fun mode ->
        let policy = { Policy.default with Policy.deletion_mode = mode } in
        let config = Config.quick ~n_procs:6 () in
        let config = { config with Config.policy } in
        let sim = Sim.create ~config () in
        let _built = Topology.fig4 (Sim.cluster sim) in
        Sim.start sim;
        let clean = Sim.run_until_clean ~step:500 ~max_time:500_000 sim in
        let stats = Sim.stats sim in
        [
          Policy.deletion_mode_name mode;
          (if clean then Printf.sprintf "%d ticks" (Sim.now sim) else "not reclaimed");
          string_of_int (Stats.get stats "dcda.detections_started");
          string_of_int (Stats.get stats "dcda.scions_deleted");
          string_of_int (Stats.get stats "net.msg.sent.cdm_delete");
        ])
      [ Policy.All_local; Policy.Broadcast ]
  in
  Table.print
    ~header:[ "mode"; "time to reclamation"; "detections"; "scions deleted"; "delete msgs" ]
    ~rows ()

(* ------------------------------------------------------------------ *)
(* E13: candidate-selection heuristics (ablation).                     *)

let bench_heuristics () =
  section "E13: candidate heuristics (2 garbage rings + live churn)";
  let rows =
    List.map
      (fun idle ->
        let policy = { Policy.default with Policy.idle_threshold = idle } in
        let config = Config.quick ~seed:5 ~n_procs:6 () in
        let config = { config with Config.policy } in
        let sim = Sim.create ~config () in
        let cluster = Sim.cluster sim in
        let _g1 = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
        let _g2 = Topology.ring ~objs_per_proc:2 cluster ~procs:[ 3; 4; 5 ] in
        let _live = Topology.rooted_ring cluster ~procs:[ 0; 3 ] in
        let churn = Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create 11) () in
        Adgc_workload.Churn.run churn ~steps:400 ~every:37;
        Sim.start sim;
        Sim.run_for sim 60_000;
        let stats = Sim.stats sim in
        let garbage = Sim.garbage_count sim in
        let aborts =
          List.fold_left
            (fun acc k -> acc + Stats.get stats ("dcda.abort." ^ k))
            0
            [ "missing_scion"; "locally_reachable"; "ic_mismatch_delivery"; "ic_conflict" ]
        in
        [
          string_of_int idle;
          string_of_int (Stats.get stats "dcda.detections_started");
          string_of_int (Stats.get stats "dcda.cdm_sent");
          string_of_int aborts;
          string_of_int (Stats.get stats "dcda.cycles_found");
          string_of_int garbage;
        ])
      [ 100; 2_000 ]
  in
  Table.print
    ~header:[ "idle"; "detections"; "CDMs"; "wasted (aborts)"; "cycles found"; "garbage left" ]
    ~rows ();
  print_endline "eager candidates find cycles sooner but waste CDMs on live suspects that";
  print_endline "abort downstream; patient ones trade reclamation latency for quiet wires"

(* ------------------------------------------------------------------ *)
(* E15: the cost of retained garbage (the paper's introduction).       *)

let bench_garbage_cost () =
  section "E15: what leaked garbage costs (intro motivation)";
  (* Same store, growing amounts of uncollected cyclic garbage; measure
     what every process keeps paying: LGC trace time and snapshot
     serialization size/time. *)
  let rows =
    List.map
      (fun garbage_rings ->
        let cluster = Cluster.create ~n:4 () in
        (* A modest live population... *)
        let live = Topology.rooted_ring ~objs_per_proc:25 cluster ~procs:[ 0; 1; 2; 3 ] in
        ignore live;
        (* ...plus accumulated distributed cyclic garbage nobody can
           reclaim without a cycle detector. *)
        for _ = 1 to garbage_rings do
          ignore (Topology.ring ~objs_per_proc:25 cluster ~procs:[ 0; 1; 2; 3 ] : Topology.built)
        done;
        let rt = Cluster.rt cluster in
        let p0 = Cluster.proc cluster 0 in
        let _, lgc_ms =
          wall_ms (fun () ->
              for _ = 1 to 20 do
                ignore (Adgc_rt.Lgc.run rt p0 : Adgc_rt.Lgc.report)
              done)
        in
        let image = Graph_image.of_process ~include_stubs:true p0 in
        let encoded, snap_ms =
          wall_ms (fun () -> Doc_codec.encode image)
        in
        [
          string_of_int (garbage_rings * 100);
          string_of_int (Cluster.total_objects cluster);
          Printf.sprintf "%.2f ms" (lgc_ms /. 20.0);
          Printf.sprintf "%.2f ms" snap_ms;
          Printf.sprintf "%d B" (String.length encoded);
        ])
      [ 0; 2; 8; 32 ]
  in
  Table.print
    ~header:[ "garbage objs"; "total objs"; "LGC (per run)"; "snapshot"; "snapshot size" ]
    ~rows ();
  print_endline "\"distributed garbage simply accumulates over time degrading performance...";
  print_endline "storage management, object loading, object marshalling\" — every duty scales";
  print_endline "with the retained heap, which is why completeness matters"

(* ------------------------------------------------------------------ *)
(* E16: safe DGC vs lease-style expiry under a network outage.         *)

let bench_leases () =
  section "E16: safe DGC vs lease-style expiry (paper: \"a safe DGC, not a lease-based one\")";
  (* A live remote reference sits across a link that goes dark for a
     while (outage, not a crash).  Lease-style collectors expire the
     scion when the lease runs out; the reference-listing DGC keeps it
     (probes + unbounded protection) and never kills a live object. *)
  let run ~lease ~outage =
    let config =
      { (Runtime.default_config ()) with Runtime.lgc_period = 300; new_set_period = 350 }
    in
    let config =
      if lease then { config with Runtime.holder_silence_limit = Some 5_000 } else config
    in
    let cluster = Cluster.create ~config ~n:2 () in
    let oracle = Adgc_check.Oracle.install cluster in
    let holder = Mutator.alloc cluster ~proc:0 () in
    let target = Mutator.alloc cluster ~proc:1 () in
    Mutator.add_root cluster holder;
    Mutator.wire_remote cluster ~holder ~target;
    Adgc.Kernel.start cluster (Adgc.Kernel.gc_rows (Cluster.rt cluster));
    Cluster.run_for cluster 2_000;
    Network.block_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
    Network.block_link (Cluster.net cluster) (Proc_id.of_int 1) (Proc_id.of_int 0);
    Cluster.run_for cluster outage;
    Network.unblock_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
    Network.unblock_link (Cluster.net cluster) (Proc_id.of_int 1) (Proc_id.of_int 0);
    Cluster.run_for cluster 10_000;
    let object_alive = Adgc_rt.Heap.mem (Cluster.proc cluster 1).Adgc_rt.Process.heap target.Heap.oid in
    let live_reclaimed =
      List.filter
        (fun (e : Adgc_check.Oracle.event) ->
          match e.Adgc_check.Oracle.violation with
          | Adgc_check.Invariant.Live_reclaimed _ -> true
          | _ -> false)
        (Adgc_check.Oracle.events oracle)
    in
    (object_alive, List.length live_reclaimed)
  in
  let rows =
    List.concat_map
      (fun outage ->
        List.map
          (fun lease ->
            let alive, violations = run ~lease ~outage in
            [
              (if lease then "lease (5k)" else "reference listing");
              string_of_int outage;
              (if alive then "survived" else "KILLED");
              string_of_int violations;
            ])
          [ false; true ])
      [ 3_000; 20_000 ]
  in
  Table.print
    ~header:[ "collector"; "outage (ticks)"; "live remote object"; "safety violations" ]
    ~rows ();
  print_endline "leases trade safety for bounded float: an outage longer than the lease";
  print_endline "kills live objects; the paper's DGC never does (it floats instead)"

(* ------------------------------------------------------------------ *)
(* E17: paged-store load traffic vs retained garbage.                  *)

let bench_pstore () =
  section "E17: paged persistent store: loads per collection vs retained garbage";
  let capacity = 150 in
  let rows =
    List.map
      (fun garbage_rings ->
        let cluster = Cluster.create ~n:4 () in
        let _live = Topology.rooted_ring ~objs_per_proc:25 cluster ~procs:[ 0; 1; 2; 3 ] in
        for _ = 1 to garbage_rings do
          ignore (Topology.ring ~objs_per_proc:25 cluster ~procs:[ 0; 1; 2; 3 ] : Topology.built)
        done;
        let p0 = Cluster.proc cluster 0 in
        let store = Pstore.create ~capacity () in
        let rt = Cluster.rt cluster in
        (* Warm, then measure 10 collections. *)
        ignore (Pstore.collect store rt p0 : Adgc_rt.Lgc.report);
        Pstore.reset_counters store;
        for _ = 1 to 10 do
          ignore (Pstore.collect store rt p0 : Adgc_rt.Lgc.report)
        done;
        let heap_size = Adgc_rt.Heap.size p0.Adgc_rt.Process.heap in
        [
          string_of_int (garbage_rings * 25);
          string_of_int heap_size;
          string_of_int (Pstore.loads store / 10);
          string_of_int (Pstore.hits store / 10);
        ])
      [ 0; 2; 8; 16 ]
  in
  Table.print
    ~header:
      [ "garbage objs @P0"; "heap @P0"; "loads per LGC (cap 150)"; "hits per LGC" ]
    ~rows ();
  print_endline "once retained garbage pushes the working set past primary memory, every";
  print_endline "collection pays disk loads — the intro's \"object loading on primary";
  print_endline "memory\" cost of incompleteness"

(* ------------------------------------------------------------------ *)
(* E18: dense-garbage worst case and the budget mitigation.            *)

let clique ~procs ~per_proc cluster =
  (* Fully-connected distributed garbage: every object references
     every other (remote ones via bootstrap wiring). *)
  let objs =
    Array.init procs (fun p ->
        Array.init per_proc (fun _ -> Mutator.alloc cluster ~proc:p ()))
  in
  Array.iteri
    (fun p row ->
      Array.iter
        (fun o ->
          Array.iteri
            (fun q row' ->
              Array.iter
                (fun o' ->
                  if o != o' then
                    if p = q then
                      ignore (Heap.add_ref (Cluster.proc cluster p).Adgc_rt.Process.heap o o'.Heap.oid : int)
                    else Mutator.wire_remote cluster ~holder:o ~target:o')
                row')
            objs)
        row)
    objs

let bench_dense () =
  section "E18: dense garbage (cliques) — the single-walk coverage limit";
  let run ~label ~procs ~per_proc ~budget ~deadline =
    let policy = { Policy.default with Policy.cdm_budget = budget } in
    let config = Config.quick ~n_procs:procs () in
    let config = { config with Config.policy } in
    let sim = Sim.create ~config () in
    clique ~procs ~per_proc (Sim.cluster sim);
    Sim.start sim;
    let clean = Sim.run_until_clean ~step:1_000 ~max_time:deadline in
    let clean = clean sim in
    let stats = Sim.stats sim in
    [
      label;
      string_of_int budget;
      (if clean then Printf.sprintf "%d ticks" (Sim.now sim) else "not reclaimed");
      string_of_int (Stats.get stats "dcda.detections_started");
      string_of_int (Stats.get stats "dcda.cdm_sent");
    ]
  in
  let rows =
    [
      run ~label:"K3 (1 obj x 3 procs, 6 refs)" ~procs:3 ~per_proc:1 ~budget:8 ~deadline:100_000;
      run ~label:"K3 (1 obj x 3 procs, 6 refs)" ~procs:3 ~per_proc:1 ~budget:32 ~deadline:100_000;
      run ~label:"K4 (2 obj x 2 procs, 8 refs)" ~procs:2 ~per_proc:2 ~budget:8 ~deadline:100_000;
      run ~label:"K4 (2 obj x 2 procs, 8 refs)" ~procs:2 ~per_proc:2 ~budget:32 ~deadline:100_000;
      run ~label:"K9 (3 obj x 3 procs, 18 refs)" ~procs:3 ~per_proc:3 ~budget:512 ~deadline:100_000;
    ]
  in
  Table.print
    ~header:[ "clique"; "budget/detection"; "reclaimed"; "detections"; "CDMs" ]
    ~rows ();
  print_endline "a conclusion needs ONE CDM walk to traverse every reference of the garbage";
  print_endline "closure (an Euler-walk requirement).  Small cliques conclude with a modest";
  print_endline "budget; K9's walk is improbable to find, and without the budget the";
  print_endline "derivation tree is combinatorial — the documented worst case of the";
  print_endline "algorithm.  Realistic sparse cycles (all other experiments) are unaffected"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (E9 matching, E10 summarization, codecs). *)

let make_algebra n =
  let rec go i alg =
    if i >= n then alg
    else
      let key =
        Ref_key.make ~src:(Proc_id.of_int (i mod 7))
          ~target:(Oid.make ~owner:(Proc_id.of_int ((i + 1) mod 7)) ~serial:i)
      in
      let alg = Algebra.add_exn alg Algebra.Source key ~ic:0 in
      let alg = Algebra.add_exn alg Algebra.Target key ~ic:0 in
      go (i + 1) alg
  in
  go 0 Algebra.empty

let make_summarize_target objects =
  let cluster = Cluster.create ~n:2 () in
  let rng = Adgc_util.Rng.create 17 in
  let _built =
    Topology.random cluster ~rng ~objects ~edges:(2 * objects) ~remote_prob:0.1 ~root_prob:0.1
  in
  Cluster.proc cluster 0

(* The condensed summarizer's favourable case: many scions whose
   targets all reach one large shared region (a per-scion BFS would
   re-trace the region for every scion; the condensation computes it
   once).  The snapshot tests check the summarizer on this heap too. *)
let make_shared_region_target ~scions ~region =
  let cluster = Cluster.create ~n:2 () in
  let p0 = Cluster.proc cluster 0 in
  let heap = p0.Adgc_rt.Process.heap in
  let blob = Array.init region (fun _ -> Heap.alloc heap) in
  for i = 0 to region - 2 do
    ignore (Heap.add_ref heap blob.(i) blob.(i + 1).Heap.oid : int)
  done;
  (* One remote reference at the bottom so the region matters. *)
  let far = Heap.alloc (Cluster.proc cluster 1).Adgc_rt.Process.heap in
  Mutator.wire_remote cluster ~holder:blob.(region - 1) ~target:far;
  (* Each scion targets its own entry object pointing into the blob. *)
  for i = 0 to scions - 1 do
    let entry = Heap.alloc heap in
    ignore (Heap.add_ref heap entry blob.(i mod region).Heap.oid : int);
    let holder = Heap.alloc (Cluster.proc cluster 1).Adgc_rt.Process.heap in
    Mutator.wire_remote cluster ~holder ~target:entry
  done;
  p0

let micro_tests () =
  let open Bechamel in
  let algebra_tests =
    Test.make_indexed ~name:"algebra/matching" ~args:[ 16; 256; 4096 ] (fun n ->
        let alg = make_algebra n in
        Staged.stage (fun () -> ignore (Algebra.matching alg : Algebra.matching_result)))
  in
  let image_1k =
    let p = build_serialization_process ~objects:1_000 ~with_stubs:false in
    Graph_image.of_process p
  in
  let codec_tests =
    [
      Test.make ~name:"codec/net-encode-1k"
        (Staged.stage (fun () -> ignore (Doc_codec.encode image_1k : string)));
      Test.make ~name:"codec/rotor-encode-1k"
        (Staged.stage (fun () -> ignore (Rotor_codec.encode image_1k : string)));
    ]
  in
  let shared_tests =
    let p = make_shared_region_target ~scions:100 ~region:2_000 in
    [
      Test.make ~name:"summarize/condensed-shared-region"
        (Staged.stage (fun () -> ignore (Summarize.run ~now:0 p : Adgc_snapshot.Summary.t)));
    ]
  in
  let summarize_tests =
    List.map
      (fun objects ->
        let p = make_summarize_target objects in
        Test.make
          ~name:(Printf.sprintf "summarize/condensed-%d" objects)
          (Staged.stage (fun () -> ignore (Summarize.run ~now:0 p : Adgc_snapshot.Summary.t))))
      [ 500; 4000 ]
  in
  Test.make_grouped ~name:"micro" ([ algebra_tests ] @ codec_tests @ summarize_tests @ shared_tests)

let bench_micro () =
  section "E9/E10 micro-costs (Bechamel, time per run)";
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ols) ->
           let ns =
             match Analyze.OLS.estimates ols with Some [ e ] -> e | Some _ | None -> Float.nan
           in
           let pretty =
             if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; pretty ])
  in
  Table.print ~header:[ "micro-benchmark"; "time/run" ] ~rows ();
  print_endline "paper: \"CDM matching is inexpensive\"; condensed summarization traces a";
  print_endline "region shared by many scions once"

let sections =
  [
    ("table1", bench_table1);
    ("serialization", bench_serialization);
    ("detection_scaling", bench_detection_scaling);
    ("baseline_compare", fun () -> Bench_detection.e7 ());
    ("loss_tolerance", bench_loss);
    ("deletion_modes", bench_deletion_modes);
    ("hughes_compare", fun () -> Bench_detection.e12 ());
    ("heuristics", bench_heuristics);
    ("garbage_cost", bench_garbage_cost);
    ("leases", bench_leases);
    ("pstore", bench_pstore);
    ("dense", bench_dense);
    ("micro", bench_micro);
  ]
