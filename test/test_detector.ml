(* Tests for the DCDA itself: end-to-end detections on the paper's
   figures, each safety rule, the mutator race, termination, deletion
   modes and concurrent detections.  These drive snapshots and
   detections by hand for full control of the interleaving. *)

open Adgc_algebra
open Adgc_rt
module Detector = Adgc_dcda.Detector
module Policy = Adgc_dcda.Policy
module Report = Adgc_dcda.Report
module Summarize = Adgc_snapshot.Summarize
module Topology = Adgc_workload.Topology
module Stats = Adgc_util.Stats

let check = Alcotest.check

type harness = { cluster : Cluster.t; detectors : Detector.t array }

let mk ?(n = 6) ?(policy = Policy.aggressive) () =
  let cluster = Cluster.create ~n () in
  let rt = Cluster.rt cluster in
  let detectors = Array.map (fun p -> Detector.attach rt p ~policy) rt.Runtime.procs in
  { cluster; detectors }

let snapshot_all h =
  let now = Cluster.now h.cluster in
  Array.iteri
    (fun i d -> Detector.set_summary d (Summarize.run ~now (Cluster.proc h.cluster i)))
    h.detectors

let settle h = ignore (Cluster.drain h.cluster : int)

let gc_rounds h k =
  let rt = Cluster.rt h.cluster in
  for _ = 1 to k do
    Array.iter (fun p -> ignore (Lgc.run rt p : Lgc.report)) rt.Runtime.procs;
    Array.iter (fun p -> Reflist.send_new_sets rt p) rt.Runtime.procs;
    settle h
  done

let all_reports h =
  Array.to_list h.detectors |> List.concat_map Detector.reports

let stat h name = Stats.get (Cluster.stats h.cluster) name

(* ------------------------------------------------------------------ *)
(* Fig. 3: the simple distributed cycle *)

let test_fig3_detection () =
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  Adgc_rt.Mutator.remove_root h.cluster (Topology.obj built "A");
  snapshot_all h;
  (* Initiate from the scion for F (held from P0, where B lives). *)
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  (match all_reports h with
  | [ r ] ->
      check Alcotest.int "cycle of 4 refs" 4 (List.length r.Report.proven);
      check Alcotest.int "4 hops" 4 r.Report.hops;
      check Alcotest.int "span 4 processes" 4 (Report.span r);
      check Alcotest.bool "concluded at initiator" true
        (Proc_id.equal r.Report.concluded_at (Proc_id.of_int 1));
      (* The proven set is exactly the built cycle. *)
      let expected = List.sort Ref_key.compare built.Topology.cycle_refs in
      let got = List.sort Ref_key.compare r.Report.proven in
      check Alcotest.bool "proven = cycle" true (List.equal Ref_key.equal expected got)
  | l -> Alcotest.failf "expected 1 report, got %d" (List.length l));
  (* The arrival scion was deleted; the acyclic DGC unravels the rest. *)
  gc_rounds h 6;
  check Alcotest.int "everything reclaimed" 0 (Cluster.total_objects h.cluster)

let test_fig3_rooted_is_safe () =
  (* Same topology but the root stays: detection must refuse or abort,
     and nothing may be collected. *)
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  (* F's scion is a legit candidate (F is not locally reachable at P1);
     the detection must die on the Local.Reach of B's stub at P0. *)
  ignore (Detector.initiate h.detectors.(1) key_f : bool);
  settle h;
  check Alcotest.int "no cycle found" 0 (List.length (all_reports h));
  check Alcotest.bool "stopped on local reachability" true
    (stat h "dcda.branch.local_reach" >= 1 || stat h "dcda.abort.locally_reachable" >= 1);
  gc_rounds h 4;
  check Alcotest.int "nothing collected" 14 (Cluster.total_objects h.cluster)

let test_fig3_candidate_refused_when_rooted_target () =
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  (* Root directly on F: its scion is not even a candidate. *)
  Adgc_rt.Mutator.add_root h.cluster (Topology.obj built "F");
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "refused" false (Detector.initiate h.detectors.(1) key_f)

(* ------------------------------------------------------------------ *)
(* Fig. 1: an extra dependency keeps the cycle alive *)

let test_fig1_extra_dependency () =
  (* The paper's first figure: a distributed cycle with one additional
     incoming reference (w in P4 -> x).  While w holds it, every
     detection ends with that dependency unresolved; when w lets go,
     the next detection concludes. *)
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  let x = Topology.obj built "n0_0" in
  let w = Adgc_rt.Mutator.alloc h.cluster ~proc:3 () in
  Adgc_rt.Mutator.add_root h.cluster w;
  Adgc_rt.Mutator.wire_remote h.cluster ~holder:w ~target:x;
  snapshot_all h;
  let key = Topology.scion_key built ~src:2 "n0_0" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(0) key);
  settle h;
  check Alcotest.int "no conclusion while w holds" 0 (List.length (all_reports h));
  gc_rounds h 3;
  check Alcotest.int "cycle intact" 4 (Cluster.total_objects h.cluster);
  (* w drops its reference; the dependency disappears. *)
  Adgc_rt.Mutator.unwire_remote h.cluster ~holder:w ~target:x;
  gc_rounds h 3;
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) key : bool);
  settle h;
  check Alcotest.int "concluded once released" 1 (List.length (all_reports h));
  gc_rounds h 6;
  check Alcotest.int "only w remains" 1 (Cluster.total_objects h.cluster)

(* ------------------------------------------------------------------ *)
(* Fig. 4: mutually-linked cycles *)

let test_fig4_detection_from_f () =
  let h = mk () in
  let built = Topology.fig4 h.cluster in
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  (* The first loop (F V T D) returns with the unresolved dependency on
     Y; the continuation through K ZB Y completes.  At least one
     conclusion must cover both cycles' references. *)
  let reports = all_reports h in
  check Alcotest.bool "concluded" true (reports <> []);
  let widest =
    List.fold_left (fun acc r -> Int.max acc (List.length r.Report.proven)) 0 reports
  in
  check Alcotest.int "full double cycle proven (7 refs)" 7 widest;
  check Alcotest.bool "no-new-info termination used" true (stat h "dcda.branch.no_new_info" >= 1);
  gc_rounds h 8;
  check Alcotest.int "both cycles reclaimed" 0 (Cluster.total_objects h.cluster)

let test_fig4_extra_dependency_blocks_first_pass () =
  (* Seen from the algebra: after the left loop only, Y is unresolved,
     so no conclusion can have happened after one loop.  We verify
     operationally: the detection does NOT conclude with just the 4
     left-cycle refs. *)
  let h = mk () in
  let built = Topology.fig4 h.cluster in
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(1) (Topology.scion_key built ~src:0 "F") : bool);
  settle h;
  List.iter
    (fun r ->
      if List.length r.Report.proven = 4 then
        Alcotest.fail "concluded on the left cycle alone despite the Y dependency")
    (all_reports h)

(* ------------------------------------------------------------------ *)
(* Fig. 5: the mutator-DCDA race *)

(* Reproduce the §3.2 interleaving: detection starts from old
   snapshots; the mutator then invokes through the D->F reference and
   re-roots the cycle at M; P0's snapshot is only taken afterwards.
   The detection must abort on the invocation counters. *)
let test_fig5_race_aborts () =
  let h = mk ~n:5 () in
  let built = Topology.fig5 h.cluster in
  let f = Topology.obj built "F" in
  let j = Topology.obj built "J" in
  let m = Topology.obj built "M" in
  let a = Topology.obj built "A" in
  (* A also knows M (so the reference to J can travel to M later). *)
  Adgc_rt.Mutator.wire_remote h.cluster ~holder:a ~target:m;
  (* Old snapshots at P1 (F's process), P4 (V), P3 (T): IC of the
     F-reference is 0 in all of them. *)
  let now = Cluster.now h.cluster in
  List.iter
    (fun i ->
      Detector.set_summary h.detectors.(i) (Summarize.run ~now (Cluster.proc h.cluster i)))
    [ 1; 3; 4 ];
  (* The mutator races: invoke through D->F, fetch J, hand it to M,
     drop the root at A. *)
  let got = ref [] in
  Adgc_rt.Mutator.call h.cluster ~src:0 ~target:f.Heap.oid
    ~behavior:Adgc_rt.Mutator.return_field_refs
    ~on_reply:(fun results -> got := results)
    ();
  settle h;
  check Alcotest.bool "J came back" true (List.exists (Oid.equal j.Heap.oid) !got);
  Adgc_rt.Mutator.call h.cluster ~src:0 ~target:m.Heap.oid ~args:[ j.Heap.oid ]
    ~behavior:Adgc_rt.Mutator.store_args ();
  settle h;
  Adgc_rt.Mutator.remove_root h.cluster a;
  (* P0 snapshots only now: its stub for F carries IC = 1. *)
  let now = Cluster.now h.cluster in
  Detector.set_summary h.detectors.(0) (Summarize.run ~now (Cluster.proc h.cluster 0));
  (* Detection starts at P1 from its stale summary (scion IC = 0). *)
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  check Alcotest.int "no cycle concluded" 0 (List.length (all_reports h));
  check Alcotest.bool "aborted on invocation counters" true
    (stat h "dcda.abort.ic_mismatch_delivery" >= 1
    || stat h "dcda.abort.ic_mismatch_matching" >= 1
    || stat h "dcda.abort.ic_conflict" >= 1);
  (* And the cycle is in fact alive through M: nothing may be swept. *)
  gc_rounds h 4;
  check Alcotest.bool "cycle survives (alive via M)" true
    (Heap.mem (Cluster.proc h.cluster 1).Process.heap f.Heap.oid)

let test_fig5_race_early_ic_check_saves_message () =
  (* Same race, with the paper's §3.2 optimization on: the process
     about to forward the conflicting algebra aborts locally instead
     of sending a doomed CDM. *)
  let policy = { Policy.aggressive with Policy.early_ic_check = true } in
  let h = mk ~n:5 ~policy () in
  let built = Topology.fig5 h.cluster in
  let f = Topology.obj built "F" in
  let now = Cluster.now h.cluster in
  List.iter
    (fun i ->
      Detector.set_summary h.detectors.(i) (Summarize.run ~now (Cluster.proc h.cluster i)))
    [ 1; 3; 4 ];
  Adgc_rt.Mutator.call h.cluster ~src:0 ~target:f.Heap.oid ();
  settle h;
  Adgc_rt.Mutator.remove_root h.cluster (Topology.obj built "A");
  let now = Cluster.now h.cluster in
  Detector.set_summary h.detectors.(0) (Summarize.run ~now (Cluster.proc h.cluster 0));
  ignore (Detector.initiate h.detectors.(1) (Topology.scion_key built ~src:0 "F") : bool);
  settle h;
  check Alcotest.int "no cycle concluded" 0 (List.length (all_reports h));
  check Alcotest.bool "early abort fired" true (stat h "dcda.abort.ic_mismatch_early" >= 1);
  check Alcotest.bool "a CDM was saved" true (stat h "dcda.cdm_saved" >= 1)

let test_fig5_after_snapshot_refresh_detects () =
  (* Control experiment: same topology, but when the cycle is truly
     garbage and all snapshots are current, the detection succeeds. *)
  let h = mk ~n:5 () in
  let built = Topology.fig5 h.cluster in
  Adgc_rt.Mutator.remove_root h.cluster (Topology.obj built "A");
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  check Alcotest.int "cycle found" 1 (List.length (all_reports h))

(* ------------------------------------------------------------------ *)
(* Safety rule 1: stub without scion in the snapshot *)

let test_missing_scion_discards_cdm () =
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  (* P1 snapshots BEFORE the ring exists from its point of view: fake
     it by giving P1 a summary of an empty process. *)
  let empty_cluster = Cluster.create ~n:4 () in
  Detector.set_summary h.detectors.(1)
    (Summarize.run ~now:0 (Cluster.proc empty_cluster 1));
  List.iter
    (fun i ->
      Detector.set_summary h.detectors.(i) (Summarize.run ~now:0 (Cluster.proc h.cluster i)))
    [ 0; 2 ];
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  settle h;
  check Alcotest.int "no conclusion" 0 (List.length (all_reports h));
  check Alcotest.bool "rule 1 fired" true (stat h "dcda.abort.missing_scion" >= 1)

let test_no_summary_discards_cdm () =
  let h = mk ~n:3 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  (* P1 never snapshots. *)
  List.iter
    (fun i ->
      Detector.set_summary h.detectors.(i) (Summarize.run ~now:0 (Cluster.proc h.cluster i)))
    [ 0; 2 ];
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  settle h;
  check Alcotest.bool "no_summary abort" true (stat h "dcda.abort.no_summary" >= 1);
  check Alcotest.int "no conclusion" 0 (List.length (all_reports h))

(* ------------------------------------------------------------------ *)
(* TTL *)

let test_ttl_stops_detection () =
  let policy = { Policy.aggressive with Policy.ttl = Some 2 } in
  let h = mk ~n:4 ~policy () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2; 3 ] in
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:3 "n0_0") : bool);
  settle h;
  check Alcotest.int "no conclusion" 0 (List.length (all_reports h));
  check Alcotest.bool "ttl abort" true (stat h "dcda.abort.ttl" >= 1)

(* ------------------------------------------------------------------ *)
(* Deletion modes *)

let reclaim_fig4_with mode =
  let policy = { Policy.aggressive with Policy.deletion_mode = mode } in
  let h = mk ~policy () in
  let built = Topology.fig4 h.cluster in
  let rec converge rounds =
    if rounds = 0 then ()
    else begin
      snapshot_all h;
      Array.iter (fun d -> ignore (Detector.scan d : int)) h.detectors;
      settle h;
      gc_rounds h 2;
      if Cluster.total_objects h.cluster > 0 then converge (rounds - 1)
    end
  in
  converge 12;
  ignore built;
  (h, Cluster.total_objects h.cluster)

let test_deletion_all_local () =
  let h, remaining = reclaim_fig4_with Policy.All_local in
  check Alcotest.int "reclaimed" 0 remaining;
  check Alcotest.int "no broadcast traffic" 0 (stat h "net.msg.sent.cdm_delete")

let test_deletion_arrival_only () =
  let h, remaining = reclaim_fig4_with Policy.Arrival_only in
  check Alcotest.int "reclaimed (may take more rounds)" 0 remaining;
  ignore h

let test_deletion_broadcast () =
  let h, remaining = reclaim_fig4_with Policy.Broadcast in
  check Alcotest.int "reclaimed" 0 remaining;
  check Alcotest.bool "broadcast used" true (stat h "net.msg.sent.cdm_delete" >= 1);
  check Alcotest.bool "remote deletions happened" true
    (stat h "dcda.scions_deleted.broadcast" >= 1)

(* ------------------------------------------------------------------ *)
(* Concurrent detections *)

let test_two_disjoint_cycles_in_parallel () =
  let h = mk ~n:6 () in
  let r1 = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  let r2 = Topology.ring h.cluster ~procs:[ 3; 4; 5 ] in
  snapshot_all h;
  check Alcotest.bool "first" true
    (Detector.initiate h.detectors.(0) (Topology.scion_key r1 ~src:2 "n0_0"));
  check Alcotest.bool "second" true
    (Detector.initiate h.detectors.(3) (Topology.scion_key r2 ~src:5 "n3_0"));
  settle h;
  let reports = all_reports h in
  check Alcotest.int "both concluded" 2 (List.length reports);
  let ids = List.map (fun r -> r.Report.id) reports in
  check Alcotest.bool "distinct detections" true
    (match ids with [ a; b ] -> not (Detection_id.equal a b) | _ -> false);
  gc_rounds h 6;
  check Alcotest.int "all reclaimed" 0 (Cluster.total_objects h.cluster)

let test_duplicate_detections_idempotent () =
  (* Two initiators race on the same ring: both may conclude; scion
     deletions are idempotent and everything is still reclaimed
     exactly once. *)
  let h = mk ~n:3 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  ignore (Detector.initiate h.detectors.(1) (Topology.scion_key built ~src:0 "n1_0") : bool);
  settle h;
  check Alcotest.bool "at least one conclusion" true (all_reports h <> []);
  gc_rounds h 6;
  check Alcotest.int "reclaimed" 0 (Cluster.total_objects h.cluster)

(* ------------------------------------------------------------------ *)
(* Candidate scanning *)

let test_scan_respects_idle_threshold () =
  let policy = { Policy.aggressive with Policy.idle_threshold = 1_000_000 } in
  let h = mk ~n:3 ~policy () in
  let _built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  snapshot_all h;
  let started = Array.fold_left (fun acc d -> acc + Detector.scan d) 0 h.detectors in
  check Alcotest.int "nothing idle enough" 0 started

let test_scan_cooldown () =
  let h = mk ~n:3 () in
  let _built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for h.cluster 1_000;
  (* idle_threshold is 200 in the aggressive policy *)
  snapshot_all h;
  let s1 = Detector.scan h.detectors.(0) in
  check Alcotest.bool "initiated" true (s1 >= 1);
  let s2 = Detector.scan h.detectors.(0) in
  check Alcotest.int "cooldown suppresses immediate rescan" 0 s2

let test_scan_skips_rooted_targets () =
  let h = mk ~n:3 () in
  let _built = Topology.rooted_ring h.cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  (* P0 holds the root; its scion's target is locally reachable, so
     detector 0 must not initiate from it. *)
  check Alcotest.int "rooted target not a candidate" 0 (Detector.scan h.detectors.(0))

(* 8 independent 2-cycles between P0 and P1 give P1 eight candidate
   scions; with max_per_scan = 3 the rotating order covers all eight
   in three scans (the huge cooldown exposes any revisits as a count
   below 8). *)
let test_scan_rotation_avoids_starvation () =
  let policy =
    {
      Policy.aggressive with
      Policy.max_per_scan = 3;
      cooldown = 1_000_000;
      scan_order = Policy.Rotating;
    }
  in
  let h = mk ~n:2 ~policy () in
  for _ = 1 to 8 do
    let a = Adgc_rt.Mutator.alloc h.cluster ~proc:0 () in
    let b = Adgc_rt.Mutator.alloc h.cluster ~proc:1 () in
    Adgc_rt.Mutator.wire_remote h.cluster ~holder:a ~target:b;
    Adgc_rt.Mutator.wire_remote h.cluster ~holder:b ~target:a
  done;
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  let total = ref 0 in
  for _ = 1 to 3 do
    total := !total + Detector.scan h.detectors.(1)
  done;
  check Alcotest.int "all eight candidates initiated" 8 !total

let test_scan_backoff_on_fruitless_candidates () =
  (* A cycle pinned forever by an external reference (Fig. 1 with w
     never letting go): scans keep retrying but exponentially less
     often. *)
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  let w = Adgc_rt.Mutator.alloc h.cluster ~proc:3 () in
  Adgc_rt.Mutator.add_root h.cluster w;
  Adgc_rt.Mutator.wire_remote h.cluster ~holder:w ~target:(Topology.obj built "n0_0");
  Cluster.run_for h.cluster 1_000;
  let count_initiations window =
    let before = stat h "dcda.detections_started" in
    for _ = 1 to window do
      Cluster.run_for h.cluster 2_000;
      (* cooldown in the aggressive policy *)
      snapshot_all h;
      Array.iter (fun d -> ignore (Detector.scan d : int)) h.detectors;
      settle h
    done;
    stat h "dcda.detections_started" - before
  in
  let early = count_initiations 8 in
  let late = count_initiations 8 in
  check Alcotest.bool "retries back off" true (late < early);
  check Alcotest.bool "still retried occasionally" true (early > 0)

let test_initiate_unknown_scion () =
  let h = mk ~n:3 () in
  snapshot_all h;
  let bogus =
    Ref_key.make ~src:(Proc_id.of_int 1) ~target:(Oid.make ~owner:(Proc_id.of_int 0) ~serial:99)
  in
  check Alcotest.bool "refused" false (Detector.initiate h.detectors.(0) bogus)

(* ------------------------------------------------------------------ *)
(* Harder topologies *)

let reclaim_via_sim ~n ~max_time build =
  let config = Adgc.Config.quick ~n_procs:n () in
  let sim = Adgc.Sim.create ~config () in
  let cluster = Adgc.Sim.cluster sim in
  let checker = Adgc_workload.Metrics.install_safety_checker cluster in
  let built = build cluster in
  ignore (built : Topology.built);
  Adgc.Sim.start sim;
  let clean = Adgc.Sim.run_until_clean ~step:1_000 ~max_time sim in
  Adgc_workload.Metrics.assert_safe checker;
  (clean, Cluster.total_objects cluster)

let test_star_cycles_reclaimed () =
  let clean, left = reclaim_via_sim ~n:5 ~max_time:300_000 (fun c -> Topology.star_cycles c) in
  check Alcotest.bool "clean" true clean;
  check Alcotest.int "nothing left" 0 left

let test_lattice_reclaimed () =
  let clean, left =
    reclaim_via_sim ~n:4 ~max_time:500_000 (fun c -> Topology.lattice c ~rows:3 ~cols:4)
  in
  check Alcotest.bool "clean" true clean;
  check Alcotest.int "nothing left" 0 left

let test_chain_into_ring_reclaimed () =
  let clean, left =
    reclaim_via_sim ~n:3 ~max_time:500_000 (fun c ->
        Topology.chain_into_ring ~chain:10 c ~procs:[ 0; 1; 2 ])
  in
  check Alcotest.bool "clean" true clean;
  check Alcotest.int "nothing left" 0 left

let test_small_clique_reclaimed_within_budget () =
  (* K4: every pair of 4 objects across 2 processes mutually linked.
     Conclusions need a CDM walk covering all 8 references; the
     default per-detection budget finds one. *)
  let config = Adgc.Config.quick ~n_procs:2 () in
  let sim = Adgc.Sim.create ~config () in
  let cluster = Adgc.Sim.cluster sim in
  let objs =
    Array.init 2 (fun p -> Array.init 2 (fun _ -> Adgc_rt.Mutator.alloc cluster ~proc:p ()))
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
                      ignore
                        (Adgc_rt.Heap.add_ref (Cluster.proc cluster p).Adgc_rt.Process.heap o
                           o'.Adgc_rt.Heap.oid
                          : int)
                    else Adgc_rt.Mutator.wire_remote cluster ~holder:o ~target:o')
                row')
            objs)
        row)
    objs;
  Adgc.Sim.start sim;
  check Alcotest.bool "K4 reclaimed" true (Adgc.Sim.run_until_clean ~max_time:300_000 sim)

let test_rooted_lattice_safe () =
  (* Root one grid corner: everything reachable from it must survive
     arbitrary detector activity. *)
  let config = Adgc.Config.quick ~n_procs:4 () in
  let sim = Adgc.Sim.create ~config () in
  let cluster = Adgc.Sim.cluster sim in
  let checker = Adgc_workload.Metrics.install_safety_checker cluster in
  let built = Topology.lattice cluster ~rows:2 ~cols:4 in
  Adgc_rt.Mutator.add_root cluster (Topology.obj built "g0_0");
  Adgc.Sim.start sim;
  Adgc.Sim.run_for sim 60_000;
  Adgc_workload.Metrics.assert_safe checker;
  (* From g0_0 the whole first row and everything below it is
     reachable (rows are rings, columns chain down): all 8 nodes. *)
  check Alcotest.int "rooted lattice intact" 8 (Cluster.total_objects cluster)

(* ------------------------------------------------------------------ *)
(* Detections under message loss *)

let test_detection_with_lost_cdm_retries () =
  (* Drop ALL CDMs for a while: the cycle survives (safe), and once the
     network heals a rescan finds it. *)
  let h = mk ~n:3 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  (Network.config (Cluster.net h.cluster)).Network.drop_prob <- 1.0;
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  settle h;
  check Alcotest.int "no conclusion yet" 0 (List.length (all_reports h));
  gc_rounds h 2;
  check Alcotest.int "cycle intact" 3 (Cluster.total_objects h.cluster);
  (Network.config (Cluster.net h.cluster)).Network.drop_prob <- 0.0;
  Cluster.run_for h.cluster 5_000;
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  settle h;
  check Alcotest.int "found after heal" 1 (List.length (all_reports h));
  gc_rounds h 6;
  check Alcotest.int "reclaimed" 0 (Cluster.total_objects h.cluster)

(* qcheck: any garbage ring (random span, chain lengths, seed) is
   detected and fully reclaimed. *)
let prop_random_rings_always_reclaimed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"any garbage ring is reclaimed" ~count:25
       QCheck2.Gen.(triple (int_range 2 8) (int_range 1 3) (int_range 0 10_000))
       (fun (span, objs_per_proc, seed) ->
         let config = Adgc.Config.quick ~seed ~n_procs:span () in
         let sim = Adgc.Sim.create ~config () in
         let cluster = Adgc.Sim.cluster sim in
         let _built =
           Topology.ring ~objs_per_proc cluster ~procs:(List.init span (fun i -> i))
         in
         Adgc.Sim.start sim;
         Adgc.Sim.run_until_clean ~step:1_000 ~max_time:400_000 sim))

(* qcheck: a rooted ring with the same parameters is never touched. *)
let prop_random_rooted_rings_survive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"any rooted ring survives" ~count:25
       QCheck2.Gen.(triple (int_range 2 8) (int_range 1 3) (int_range 0 10_000))
       (fun (span, objs_per_proc, seed) ->
         let config = Adgc.Config.quick ~seed ~n_procs:span () in
         let sim = Adgc.Sim.create ~config () in
         let cluster = Adgc.Sim.cluster sim in
         let _built =
           Topology.rooted_ring ~objs_per_proc cluster ~procs:(List.init span (fun i -> i))
         in
         Adgc.Sim.start sim;
         Adgc.Sim.run_for sim 50_000;
         Cluster.total_objects cluster = span * objs_per_proc))

(* ------------------------------------------------------------------ *)
(* Duplicate delivery: a replayed CDM or cycle-deletion envelope must
   leave the detector state exactly as the first delivery did. *)

let test_duplicate_cdm_ignored () =
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  Mutator.remove_root h.cluster (Topology.obj built "A");
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(1) (Topology.scion_key built ~src:0 "F") : bool);
  (* Put the queued CDM on the wire, then snatch it before it lands. *)
  Runtime.flush_all_batches (Cluster.rt h.cluster);
  let cdm_msg =
    match
      List.find_opt
        (fun (m : Msg.t) -> match m.Msg.payload with Msg.Cdm _ -> true | _ -> false)
        (Network.in_flight (Cluster.net h.cluster))
    with
    | Some m -> m
    | None -> Alcotest.fail "no CDM in flight after initiation"
  in
  settle h;
  let received = stat h "dcda.cdm_received" in
  let reports = List.length (all_reports h) in
  check Alcotest.int "detection concluded" 1 reports;
  (* Adversarial replay of the captured envelope. *)
  Network.send (Cluster.net h.cluster) cdm_msg;
  settle h;
  check Alcotest.int "replay suppressed" 1 (stat h "net.msg.duplicate_ignored");
  check Alcotest.int "detector never re-ran" received (stat h "dcda.cdm_received");
  check Alcotest.int "no extra conclusion" reports (List.length (all_reports h))

let test_duplicate_cdm_delete_idempotent () =
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  Mutator.remove_root h.cluster (Topology.obj built "A");
  let key_f = Topology.scion_key built ~src:0 "F" in
  let p1 = Cluster.proc h.cluster 1 in
  check Alcotest.bool "scion exists" true (Scion_table.mem p1.Process.scions key_f);
  let id = Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:99 in
  let payload = Msg.Cdm_delete { id; scions = [ key_f ] } in
  let msg =
    Msg.make ~seq:500 ~src:(Proc_id.of_int 3) ~dst:p1.Process.id ~sent_at:0 payload
  in
  Network.send (Cluster.net h.cluster) msg;
  Network.send (Cluster.net h.cluster) msg;
  settle h;
  check Alcotest.bool "scion deleted" false (Scion_table.mem p1.Process.scions key_f);
  check Alcotest.bool "tombstoned" true (Scion_table.tombstoned p1.Process.scions key_f);
  check Alcotest.int "deleted exactly once" 1 (stat h "dcda.scions_deleted.broadcast");
  check Alcotest.int "replay suppressed" 1 (stat h "net.msg.duplicate_ignored");
  (* Same deletion inside a fresh envelope: the handler itself is
     idempotent — deleting a deleted scion is a no-op. *)
  let msg' =
    Msg.make ~seq:501 ~src:(Proc_id.of_int 3) ~dst:p1.Process.id ~sent_at:0 payload
  in
  Network.send (Cluster.net h.cluster) msg';
  settle h;
  check Alcotest.int "still deleted exactly once" 1 (stat h "dcda.scions_deleted.broadcast")

(* ------------------------------------------------------------------ *)
(* Detection lineage (telemetry on) *)

module Lineage = Adgc_obs.Lineage

let mk_telemetry ?(n = 6) ?(policy = Policy.aggressive) () =
  let cluster = Cluster.create ~telemetry:true ~n () in
  let rt = Cluster.rt cluster in
  let detectors = Array.map (fun p -> Detector.attach rt p ~policy) rt.Runtime.procs in
  { cluster; detectors }

(* A proven report's lineage must read as a complete story: initiated,
   at least one send and one receive, chronological, concluded. *)
let assert_full_chain (r : Report.t) =
  match r.Report.lineage with
  | [] -> Alcotest.fail "report has no lineage"
  | first :: _ as hops ->
      (match first with
      | Lineage.Initiated _ -> ()
      | h -> Alcotest.failf "chain starts with %s" (Format.asprintf "%a" Lineage.pp_hop h));
      (match List.nth hops (List.length hops - 1) with
      | Lineage.Concluded { proven; _ } -> check Alcotest.bool "concluded proven" true proven
      | h -> Alcotest.failf "chain ends with %s" (Format.asprintf "%a" Lineage.pp_hop h));
      check Alcotest.bool "has a send" true
        (List.exists (function Lineage.Sent _ -> true | _ -> false) hops);
      check Alcotest.bool "has a receive" true
        (List.exists (function Lineage.Received _ -> true | _ -> false) hops);
      let times = List.map Lineage.hop_time hops in
      check Alcotest.bool "chronological" true (List.sort Int.compare times = times)

let test_lineage_fig3_full_chain () =
  let h = mk_telemetry ~n:4 () in
  let built = Topology.fig3 h.cluster in
  Mutator.remove_root h.cluster (Topology.obj built "A");
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  match all_reports h with
  | [ r ] ->
      assert_full_chain r;
      let received =
        List.length
          (List.filter (function Lineage.Received _ -> true | _ -> false) r.Report.lineage)
      in
      check Alcotest.int "one Received per CDM hop" r.Report.hops received
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_lineage_every_concurrent_report () =
  let h = mk_telemetry ~n:6 () in
  let r1 = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  let r2 = Topology.ring h.cluster ~procs:[ 3; 4; 5 ] in
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(0) (Topology.scion_key r1 ~src:2 "n0_0") : bool);
  ignore (Detector.initiate h.detectors.(3) (Topology.scion_key r2 ~src:5 "n3_0") : bool);
  settle h;
  let reports = all_reports h in
  check Alcotest.int "both concluded" 2 (List.length reports);
  List.iter assert_full_chain reports;
  (* The two chains are keyed separately in the registry. *)
  check Alcotest.int "two detections in the registry" 2
    (List.length (Lineage.detections (Cluster.lineage h.cluster)))

let test_lineage_guard_recorded () =
  (* A rooted (live) cycle: the detection must die on a guard, and the
     registry must say which one even though no report exists. *)
  let h = mk_telemetry ~n:4 () in
  let built = Topology.fig3 h.cluster in
  snapshot_all h;
  let key_f = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "initiated" true (Detector.initiate h.detectors.(1) key_f);
  settle h;
  check Alcotest.int "no report for a live cycle" 0 (List.length (all_reports h));
  let lineage = Cluster.lineage h.cluster in
  match Lineage.detections lineage with
  | [ id ] ->
      check Alcotest.bool "guard recorded" true
        (List.exists
           (function Lineage.Guard _ -> true | _ -> false)
           (Lineage.hops lineage id))
  | ids -> Alcotest.failf "expected one detection, got %d" (List.length ids)

(* The scan-source helpers: a scion's key, the keys the published
   summary of process [i] offers the scan (its not-locally-reachable
   scions, ascending), and the candidates [i] initiated from, in
   initiation order (read from the lineage, so telemetry must be on). *)
let ref_key (holder : Heap.obj) (target : Heap.obj) =
  Ref_key.make ~src:(Oid.owner holder.Heap.oid) ~target:target.Heap.oid

let published h i =
  match Detector.summary h.detectors.(i) with
  | Some s ->
      List.filter_map
        (fun (si : Adgc_snapshot.Summary.scion_info) ->
          if si.Adgc_snapshot.Summary.target_locally_reachable then None
          else Some si.Adgc_snapshot.Summary.key)
        (Adgc_snapshot.Summary.scion_list s)
  | None -> Alcotest.fail "no published summary"

let initiated_by h i =
  let lineage = Cluster.lineage h.cluster in
  List.filter_map
    (fun (id : Detection_id.t) ->
      if not (Proc_id.equal id.Detection_id.initiator (Proc_id.of_int i)) then None
      else
        match Lineage.hops lineage id with
        | Lineage.Initiated { candidate; _ } :: _ -> Some (id.Detection_id.seq, candidate)
        | _ -> None)
    (Lineage.detections lineage)
  |> List.sort compare |> List.map snd

let keys = Alcotest.(list (of_pp Ref_key.pp))

(* [k] independent two-cycles between P0 and P1, in allocation order. *)
let two_cycles h k =
  List.init k (fun _ ->
      let a = Mutator.alloc h.cluster ~proc:0 () in
      let b = Mutator.alloc h.cluster ~proc:1 () in
      Mutator.wire_remote h.cluster ~holder:a ~target:b;
      Mutator.wire_remote h.cluster ~holder:b ~target:a;
      (a, b))

(* The scan-source contract: [Detector.scan] initiates from the
   published summary's not-locally-reachable scions, in ascending key
   order, and from nothing else.  Two processes share a garbage cycle
   with two scions on each side; P0 also holds a scion whose target is
   rooted, allocated between the two candidates so the filter must
   drop it from the middle.  A root added to a candidate's target after
   the publish does not remove it: the source is exactly as stale as
   the summary, and only the next publish sees the root. *)
let test_scan_source_is_the_summary () =
  let policy = { Policy.aggressive with Policy.scan_order = Policy.Sorted } in
  let h = mk_telemetry ~n:2 ~policy () in
  let a0 = Mutator.alloc h.cluster ~proc:0 () in
  let r = Mutator.alloc h.cluster ~proc:0 () in
  let a1 = Mutator.alloc h.cluster ~proc:0 () in
  let b0 = Mutator.alloc h.cluster ~proc:1 () in
  let b1 = Mutator.alloc h.cluster ~proc:1 () in
  let x = Mutator.alloc h.cluster ~proc:1 () in
  Mutator.add_root h.cluster r;
  Mutator.add_root h.cluster x;
  List.iter
    (fun (holder, target) -> Mutator.wire_remote h.cluster ~holder ~target)
    [ (a0, b0); (b0, a1); (a1, b1); (b1, a0); (x, r) ];
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  check keys "P0's published candidates" [ ref_key b1 a0; ref_key b0 a1 ] (published h 0);
  check keys "P1's published candidates" [ ref_key a0 b0; ref_key a1 b1 ] (published h 1);
  check Alcotest.int "P1 scans its published candidates" 2 (Detector.scan h.detectors.(1));
  check keys "P1 initiates from the summary's candidates" (published h 1) (initiated_by h 1);
  (* A root after the publish: the live heap now reaches a1, the
     published summary does not. *)
  Mutator.add_root h.cluster a1;
  check Alcotest.int "P0 scans its published candidates" 2 (Detector.scan h.detectors.(0));
  check keys "P0 initiates from the summary's candidates" (published h 0) (initiated_by h 0);
  snapshot_all h;
  check keys "the next publish sees the root" [ ref_key b1 a0 ] (published h 0)

(* Without a published summary there is no candidate, however long
   the garbage has sat idle. *)
let test_scan_needs_a_publish () =
  let h = mk ~n:2 () in
  let _ = two_cycles h 1 in
  Cluster.run_for h.cluster 1_000;
  check Alcotest.int "no summary, no scan" 0 (Detector.scan h.detectors.(0));
  check Alcotest.int "nothing started" 0 (stat h "dcda.detections_started");
  snapshot_all h;
  check Alcotest.int "the publish makes it a candidate" 1 (Detector.scan h.detectors.(0))

(* The other half of the staleness: a garbage scion created after the
   publish is not a candidate until the next publish lists it. *)
let test_scan_new_scion_waits_for_publish () =
  let policy =
    { Policy.aggressive with Policy.scan_order = Policy.Sorted; cooldown = 1_000_000 }
  in
  let h = mk_telemetry ~n:2 ~policy () in
  let a0, b0 = List.hd (two_cycles h 1) in
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  let a1, b1 = List.hd (two_cycles h 1) in
  Cluster.run_for h.cluster 1_000;
  check keys "the publish predates the new scion" [ ref_key a0 b0 ] (published h 1);
  check Alcotest.int "P1 scans the published scion only" 1 (Detector.scan h.detectors.(1));
  check keys "P1 initiated from the old scion" [ ref_key a0 b0 ] (initiated_by h 1);
  snapshot_all h;
  check keys "the next publish lists both" [ ref_key a0 b0; ref_key a1 b1 ] (published h 1);
  check Alcotest.int "P1 scans the new scion" 1 (Detector.scan h.detectors.(1));
  check keys "P1 initiated from both, in turn" [ ref_key a0 b0; ref_key a1 b1 ] (initiated_by h 1)

(* [Sorted] takes the lowest eligible keys at every scan: with no
   cooldown, two scans pick the same [max_per_scan] keys. *)
let test_scan_sorted_restarts_from_lowest () =
  let policy =
    {
      Policy.aggressive with
      Policy.scan_order = Policy.Sorted;
      max_per_scan = 2;
      cooldown = 0;
      backoff = false;
    }
  in
  let h = mk_telemetry ~n:2 ~policy () in
  let _ = two_cycles h 4 in
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  let lowest = List.filteri (fun i _ -> i < 2) (published h 1) in
  check Alcotest.int "four candidates" 4 (List.length (published h 1));
  check Alcotest.int "first scan" 2 (Detector.scan h.detectors.(1));
  check Alcotest.int "second scan" 2 (Detector.scan h.detectors.(1));
  check keys "both scans took the two lowest keys" (lowest @ lowest) (initiated_by h 1)

(* The idle filter reads the summary's [last_invoked] too: an
   invocation after the publish leaves the scion a candidate until the
   next publish records it. *)
let test_scan_idle_filter_reads_the_summary () =
  let policy = { Policy.aggressive with Policy.cooldown = 0; backoff = false } in
  let h = mk ~n:2 ~policy () in
  let a, b = List.hd (two_cycles h 1) in
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  (* Long enough to deliver the invocation, shorter than the idle
     threshold; [settle] would also run the call's pin timeout, 5,000 ticks on. *)
  Mutator.invoke h.cluster ~src:0 ~target:b.Heap.oid;
  Cluster.run_for h.cluster 100;
  let live =
    match Scion_table.find (Cluster.proc h.cluster 1).Process.scions (ref_key a b) with
    | Some e -> e.Scion_table.last_invoked
    | None -> Alcotest.fail "the scion is gone"
  in
  check Alcotest.bool "the live scion was just invoked" true (live >= 1_000);
  check Alcotest.int "the published summary still reads it idle" 1
    (Detector.scan h.detectors.(1));
  snapshot_all h;
  check Alcotest.int "the next publish reads it busy" 0 (Detector.scan h.detectors.(1))

let test_lineage_off_is_empty () =
  let h = mk ~n:4 () in
  let built = Topology.fig3 h.cluster in
  Mutator.remove_root h.cluster (Topology.obj built "A");
  snapshot_all h;
  ignore (Detector.initiate h.detectors.(1) (Topology.scion_key built ~src:0 "F") : bool);
  settle h;
  match all_reports h with
  | [ r ] -> check Alcotest.int "no lineage without telemetry" 0 (List.length r.Report.lineage)
  | _ -> Alcotest.fail "expected one report"

let suite =
  ( "detector",
    [
      Alcotest.test_case "fig3: detects and reclaims" `Quick test_fig3_detection;
      Alcotest.test_case "fig3: rooted cycle is safe" `Quick test_fig3_rooted_is_safe;
      Alcotest.test_case "fig3: rooted target not a candidate" `Quick
        test_fig3_candidate_refused_when_rooted_target;
      Alcotest.test_case "fig1: extra dependency" `Quick test_fig1_extra_dependency;
      Alcotest.test_case "fig4: mutual cycles detected" `Quick test_fig4_detection_from_f;
      Alcotest.test_case "fig4: Y dependency blocks early conclusion" `Quick
        test_fig4_extra_dependency_blocks_first_pass;
      Alcotest.test_case "fig5: mutator race aborts" `Quick test_fig5_race_aborts;
      Alcotest.test_case "fig5: early IC check saves the doomed CDM" `Quick
        test_fig5_race_early_ic_check_saves_message;
      Alcotest.test_case "fig5: control (garbage detected)" `Quick
        test_fig5_after_snapshot_refresh_detects;
      Alcotest.test_case "rule 1: missing scion" `Quick test_missing_scion_discards_cdm;
      Alcotest.test_case "no summary: CDM discarded" `Quick test_no_summary_discards_cdm;
      Alcotest.test_case "ttl stops runaway detection" `Quick test_ttl_stops_detection;
      Alcotest.test_case "deletion: all_local" `Quick test_deletion_all_local;
      Alcotest.test_case "deletion: arrival_only" `Quick test_deletion_arrival_only;
      Alcotest.test_case "deletion: broadcast" `Quick test_deletion_broadcast;
      Alcotest.test_case "parallel disjoint detections" `Quick test_two_disjoint_cycles_in_parallel;
      Alcotest.test_case "duplicate detections idempotent" `Quick
        test_duplicate_detections_idempotent;
      Alcotest.test_case "scan: idle threshold" `Quick test_scan_respects_idle_threshold;
      Alcotest.test_case "scan: cooldown" `Quick test_scan_cooldown;
      Alcotest.test_case "scan: skips rooted targets" `Quick test_scan_skips_rooted_targets;
      Alcotest.test_case "scan: the source is the published summary" `Quick
        test_scan_source_is_the_summary;
      Alcotest.test_case "scan: nothing before the first publish" `Quick test_scan_needs_a_publish;
      Alcotest.test_case "scan: a scion made after the publish waits for the next" `Quick
        test_scan_new_scion_waits_for_publish;
      Alcotest.test_case "scan: sorted order restarts from the lowest key" `Quick
        test_scan_sorted_restarts_from_lowest;
      Alcotest.test_case "scan: the idle filter reads the published summary" `Quick
        test_scan_idle_filter_reads_the_summary;
      Alcotest.test_case "scan: rotation avoids starvation" `Quick
        test_scan_rotation_avoids_starvation;
      Alcotest.test_case "scan: backoff on fruitless candidates" `Quick
        test_scan_backoff_on_fruitless_candidates;
      Alcotest.test_case "initiate: unknown scion refused" `Quick test_initiate_unknown_scion;
      Alcotest.test_case "loss: CDM drop is safe, retry succeeds" `Quick
        test_detection_with_lost_cdm_retries;
      Alcotest.test_case "topology: star cycles reclaimed" `Quick test_star_cycles_reclaimed;
      Alcotest.test_case "topology: lattice reclaimed" `Quick test_lattice_reclaimed;
      Alcotest.test_case "topology: chain into ring reclaimed" `Quick
        test_chain_into_ring_reclaimed;
      Alcotest.test_case "topology: rooted lattice safe" `Quick test_rooted_lattice_safe;
      Alcotest.test_case "topology: K4 clique within budget" `Quick
        test_small_clique_reclaimed_within_budget;
      prop_random_rings_always_reclaimed;
      prop_random_rooted_rings_survive;
      Alcotest.test_case "duplicate: CDM replay ignored" `Quick test_duplicate_cdm_ignored;
      Alcotest.test_case "duplicate: cycle deletion idempotent" `Quick
        test_duplicate_cdm_delete_idempotent;
      Alcotest.test_case "lineage: fig3 full chain" `Quick test_lineage_fig3_full_chain;
      Alcotest.test_case "lineage: every concurrent report" `Quick
        test_lineage_every_concurrent_report;
      Alcotest.test_case "lineage: guard on a live cycle" `Quick test_lineage_guard_recorded;
      Alcotest.test_case "lineage: empty when telemetry off" `Quick test_lineage_off_is_empty;
    ] )
