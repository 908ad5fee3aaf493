(* Tests for graph summarization (StubsFrom / ScionsTo / Local.Reach),
   the naive-vs-condensed equivalence property, snapshot serialization
   and the heap imaging used by experiment E2. *)

open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Summarize = Adgc_snapshot.Summarize
module Graph_image = Adgc_snapshot.Graph_image
module Snapshot_store = Adgc_snapshot.Snapshot_store

let check = Alcotest.check

let mk ?(n = 4) () = Cluster.create ~n ()

let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

(* Build the paper's Fig. 3 situation restricted to P2: scion for F
   (from P1), local F -> G -> H -> J, F -> H, and J holds the remote
   reference to Q@P4. *)
let build_p2_like () =
  let cluster = mk () in
  let f = Mutator.alloc cluster ~proc:1 () in
  let g = Mutator.alloc cluster ~proc:1 () in
  let h = Mutator.alloc cluster ~proc:1 () in
  let j = Mutator.alloc cluster ~proc:1 () in
  let q = Mutator.alloc cluster ~proc:3 () in
  let b = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster b;
  Mutator.link cluster ~from_:f ~to_:g;
  Mutator.link cluster ~from_:f ~to_:h;
  Mutator.link cluster ~from_:g ~to_:h;
  Mutator.link cluster ~from_:h ~to_:j;
  Mutator.wire_remote cluster ~holder:b ~target:f;
  Mutator.wire_remote cluster ~holder:j ~target:q;
  (cluster, f, j, q)

let test_stubs_from () =
  let cluster, f, _, q = build_p2_like () in
  let summary = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_scion summary (key 0 f.Heap.oid) with
  | Some si ->
      check Alcotest.int "one stub" 1 (Oid.Set.cardinal si.Summary.stubs_from);
      check Alcotest.bool "it is Q" true (Oid.Set.mem q.Heap.oid si.Summary.stubs_from);
      check Alcotest.bool "F not locally reachable" false si.Summary.target_locally_reachable
  | None -> Alcotest.fail "scion missing from summary"

let test_scions_to () =
  let cluster, f, _, q = build_p2_like () in
  let summary = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_stub summary q.Heap.oid with
  | Some st ->
      check Alcotest.int "one scion leads here" 1 (Ref_key.Set.cardinal st.Summary.scions_to);
      check Alcotest.bool "it is F's scion" true
        (Ref_key.Set.mem (key 0 f.Heap.oid) st.Summary.scions_to);
      check Alcotest.bool "not locally reachable" false st.Summary.local_reach
  | None -> Alcotest.fail "stub missing from summary"

let test_local_reach_flag () =
  (* Root -> holder -> remote ref: Local.Reach must be true. *)
  let cluster = mk () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 0) in
  match Summary.find_stub summary target.Heap.oid with
  | Some st -> check Alcotest.bool "locally reachable" true st.Summary.local_reach
  | None -> Alcotest.fail "stub missing"

let test_scion_target_locally_reachable () =
  let cluster = mk () in
  let x = Mutator.alloc cluster ~proc:0 () in
  let holder = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster x;
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target:x;
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 0) in
  match Summary.find_scion summary (key 1 x.Heap.oid) with
  | Some si -> check Alcotest.bool "rooted target" true si.Summary.target_locally_reachable
  | None -> Alcotest.fail "scion missing"

let test_internal_refs_compiled_away () =
  let cluster, _, _, _ = build_p2_like () in
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 1) in
  let scions, stubs = Summary.counts summary in
  (* Four local objects, four local references — but the summary holds
     only 1 scion and 1 stub. *)
  check Alcotest.int "scions" 1 scions;
  check Alcotest.int "stubs" 1 stubs

let test_shared_stub_multiple_scions () =
  (* Fig. 4's P5: V and Y both lead to the single stub to T. *)
  let cluster = mk ~n:6 () in
  let v = Mutator.alloc cluster ~proc:4 () in
  let y = Mutator.alloc cluster ~proc:4 () in
  let t = Mutator.alloc cluster ~proc:3 () in
  let f = Mutator.alloc cluster ~proc:1 () in
  let zd = Mutator.alloc cluster ~proc:5 () in
  Mutator.wire_remote cluster ~holder:f ~target:v;
  Mutator.wire_remote cluster ~holder:zd ~target:y;
  Mutator.wire_remote cluster ~holder:v ~target:t;
  ignore (Heap.add_ref (Cluster.proc cluster 4).Process.heap y t.Heap.oid : int);
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 4) in
  (match Summary.find_stub summary t.Heap.oid with
  | Some st -> check Alcotest.int "two scions converge" 2 (Ref_key.Set.cardinal st.Summary.scions_to)
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion summary (key 5 y.Heap.oid) with
  | Some si -> check Alcotest.bool "Y reaches the stub" true (Oid.Set.mem t.Heap.oid si.Summary.stubs_from)
  | None -> Alcotest.fail "Y scion missing"

let test_diamond_and_cycle_local_structure () =
  (* Local diamond with an internal cycle, remote ref at the bottom:
     both summarizers must agree the scion reaches the stub. *)
  let cluster = mk () in
  let top = Mutator.alloc cluster ~proc:0 () in
  let l = Mutator.alloc cluster ~proc:0 () in
  let r = Mutator.alloc cluster ~proc:0 () in
  let bottom = Mutator.alloc cluster ~proc:0 () in
  let remote_obj = Mutator.alloc cluster ~proc:1 () in
  let holder = Mutator.alloc cluster ~proc:2 () in
  Mutator.link cluster ~from_:top ~to_:l;
  Mutator.link cluster ~from_:top ~to_:r;
  Mutator.link cluster ~from_:l ~to_:bottom;
  Mutator.link cluster ~from_:r ~to_:bottom;
  Mutator.link cluster ~from_:bottom ~to_:top;
  Mutator.wire_remote cluster ~holder:bottom ~target:remote_obj;
  Mutator.wire_remote cluster ~holder ~target:top;
  let naive = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 0) in
  let cond = Summarize.run ~algo:Summarize.Condensed ~now:0 (Cluster.proc cluster 0) in
  check Alcotest.bool "summarizers agree" true (Summary.equal naive cond);
  match Summary.find_scion naive (key 2 top.Heap.oid) with
  | Some si -> check Alcotest.bool "reaches stub through diamond" true (Oid.Set.mem remote_obj.Heap.oid si.Summary.stubs_from)
  | None -> Alcotest.fail "scion missing"

let test_naive_equals_condensed_random () =
  (* Property: on random graphs both algorithms produce identical
     summaries. *)
  let rng = Adgc_util.Rng.create 2024 in
  for _case = 1 to 25 do
    let cluster = Cluster.create ~n:3 () in
    let _built =
      Adgc_workload.Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3
        ~root_prob:0.2
    in
    for proc = 0 to 2 do
      let p = Cluster.proc cluster proc in
      let naive = Summarize.run ~algo:Summarize.Naive ~now:0 p in
      let cond = Summarize.run ~algo:Summarize.Condensed ~now:0 p in
      if not (Summary.equal naive cond) then
        Alcotest.failf "summaries disagree on proc %d" proc
    done
  done

let test_all_summarizers_agree_under_churn () =
  (* Property: Naive, the dense Condensed, the set-based reference
     Condensed_sets and the Incremental summarizer all produce equal
     summaries on randomized graphs subjected to churn (allocation,
     linking, unlinking, RMIs) — the parity that lets Condensed stay
     the default. *)
  List.iter
    (fun seed ->
      let rng = Adgc_util.Rng.create seed in
      let cluster = Cluster.create ~n:3 () in
      let _built =
        Adgc_workload.Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3
          ~root_prob:0.2
      in
      let states = Array.init 3 (fun _ -> Summarize.Incremental.create ()) in
      let churn =
        Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed * 13 + 1)) ()
      in
      for round = 1 to 5 do
        for _ = 1 to 15 do
          Adgc_workload.Churn.step churn
        done;
        ignore (Cluster.drain cluster : int);
        for proc = 0 to 2 do
          let p = Cluster.proc cluster proc in
          let naive = Summarize.run ~algo:Summarize.Naive ~now:round p in
          let dense = Summarize.run ~algo:Summarize.Condensed ~now:round p in
          let sets = Summarize.run ~algo:Summarize.Condensed_sets ~now:round p in
          let inc = Summarize.Incremental.run states.(proc) ~now:round p in
          if not (Summary.equal naive dense) then
            Alcotest.failf "seed %d round %d proc %d: naive <> condensed" seed round proc;
          if not (Summary.equal naive sets) then
            Alcotest.failf "seed %d round %d proc %d: naive <> condensed_sets" seed round proc;
          if not (Summary.equal naive inc) then
            Alcotest.failf "seed %d round %d proc %d: naive <> incremental" seed round proc
        done
      done)
    [ 101; 202; 303 ]

let test_summary_captures_ics () =
  let cluster = mk ~n:2 () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster callee;
  Mutator.wire_remote cluster ~holder:caller ~target:callee;
  Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid;
  ignore (Cluster.drain cluster : int);
  let s0 = Summarize.run ~now:1 (Cluster.proc cluster 0) in
  let s1 = Summarize.run ~now:1 (Cluster.proc cluster 1) in
  (match Summary.find_stub s0 callee.Heap.oid with
  | Some st -> check Alcotest.int "stub ic in summary" 1 st.Summary.stub_ic
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion s1 (key 0 callee.Heap.oid) with
  | Some si ->
      check Alcotest.int "scion ic in summary" 1 si.Summary.scion_ic;
      check Alcotest.bool "last_invoked recorded" true (si.Summary.last_invoked > 0)
  | None -> Alcotest.fail "scion missing"

let test_summary_is_immutable_snapshot () =
  (* Mutations after the summary is taken must not show up in it. *)
  let cluster, f, j, q = build_p2_like () in
  ignore f;
  let p1 = Cluster.proc cluster 1 in
  let summary = Summarize.run ~now:0 p1 in
  (* Remove the remote reference afterwards. *)
  ignore (Heap.remove_ref p1.Process.heap j q.Heap.oid : bool);
  match Summary.find_stub summary q.Heap.oid with
  | Some _ -> ()
  | None -> Alcotest.fail "summary changed retroactively"

let test_summary_bytes_roundtrip () =
  let cluster, _, _, _ = build_p2_like () in
  let summary = Summarize.run ~now:7 (Cluster.proc cluster 1) in
  match Summary.decode (Summary.encode summary) with
  | Some s ->
      check Alcotest.bool "roundtrip" true (Summary.equal summary s);
      check Alcotest.int "taken_at preserved" 7 s.Summary.taken_at
  | None -> Alcotest.fail "decode failed"

let test_summary_decode_rejects_junk () =
  List.iter
    (fun junk -> check Alcotest.bool "junk" true (Summary.decode junk = None))
    [ ""; "\x03\x02"; Adgc_serial.Net_codec.encode (Adgc_serial.Sval.Int 1) ]

(* ------------------------------------------------------------------ *)
(* Incremental summarization *)

let test_incremental_matches_full () =
  let cluster, f, j, q = build_p2_like () in
  ignore (f, q);
  let p1 = Cluster.proc cluster 1 in
  let state = Summarize.Incremental.create () in
  let check_same label =
    let inc = Summarize.Incremental.run state ~now:0 p1 in
    let full = Summarize.run ~algo:Summarize.Naive ~now:0 p1 in
    if not (Summary.equal inc full) then Alcotest.failf "%s: incremental diverged" label
  in
  check_same "initial";
  check_same "no mutation";
  (* Mutate inside the scion's region. *)
  let extra = Mutator.alloc cluster ~proc:1 () in
  Mutator.link cluster ~from_:j ~to_:extra;
  check_same "after link";
  ignore (Heap.remove_ref p1.Process.heap j extra.Heap.oid : bool);
  check_same "after unlink"

let test_incremental_reuses_clean_regions () =
  let cluster, _, _, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let state = Summarize.Incremental.create () in
  ignore (Summarize.Incremental.run state ~now:0 p1 : Summary.t);
  check Alcotest.bool "first run traces" true (Summarize.Incremental.last_recomputed state >= 1);
  ignore (Summarize.Incremental.run state ~now:1 p1 : Summary.t);
  check Alcotest.int "second run re-traces nothing" 0
    (Summarize.Incremental.last_recomputed state);
  check Alcotest.bool "regions reused" true (Summarize.Incremental.last_reused state >= 2)

let test_incremental_detects_root_change () =
  let cluster, f, _, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let state = Summarize.Incremental.create () in
  ignore (Summarize.Incremental.run state ~now:0 p1 : Summary.t);
  Heap.add_root p1.Process.heap f.Heap.oid;
  let inc = Summarize.Incremental.run state ~now:1 p1 in
  let full = Summarize.run ~algo:Summarize.Naive ~now:1 p1 in
  check Alcotest.bool "sees the new root" true (Summary.equal inc full);
  match Summary.find_scion inc (key 0 f.Heap.oid) with
  | Some si -> check Alcotest.bool "now locally reachable" true si.Summary.target_locally_reachable
  | None -> Alcotest.fail "scion missing"

let test_incremental_random_equivalence () =
  (* Interleave random mutations with incremental runs; every run must
     equal a from-scratch summary. *)
  let rng = Adgc_util.Rng.create 314 in
  for _case = 1 to 10 do
    let cluster = Cluster.create ~n:3 () in
    let _built =
      Adgc_workload.Topology.random cluster ~rng ~objects:30 ~edges:60 ~remote_prob:0.3
        ~root_prob:0.2
    in
    let states = Array.init 3 (fun _ -> Summarize.Incremental.create ()) in
    let churn =
      Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create (_case * 7)) ()
    in
    for round = 1 to 6 do
      for _ = 1 to 10 do
        Adgc_workload.Churn.step churn
      done;
      ignore (Cluster.drain cluster : int);
      for proc = 0 to 2 do
        let p = Cluster.proc cluster proc in
        let inc = Summarize.Incremental.run states.(proc) ~now:round p in
        let full = Summarize.run ~algo:Summarize.Naive ~now:round p in
        if not (Summary.equal inc full) then
          Alcotest.failf "case %d round %d proc %d: incremental diverged" _case round proc
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Snapshot store *)

let test_store_roundtrips_through_codec () =
  let cluster, _, _, _ = build_p2_like () in
  let rt = Cluster.rt cluster in
  let store = Snapshot_store.create rt in
  let received = ref [] in
  Snapshot_store.subscribe store (fun s -> received := s :: !received);
  let s = Snapshot_store.take store (Cluster.proc cluster 1) in
  check Alcotest.int "subscriber called" 1 (List.length !received);
  check Alcotest.bool "published = returned" true (Summary.equal s (List.hd !received));
  check Alcotest.bool "bytes on disk" true
    (Snapshot_store.bytes_on_disk store (Proc_id.of_int 1) > 0);
  match Snapshot_store.latest store (Proc_id.of_int 1) with
  | Some latest -> check Alcotest.bool "latest matches" true (Summary.equal s latest)
  | None -> Alcotest.fail "no latest"

let test_store_take_all () =
  let cluster, _, _, _ = build_p2_like () in
  let store = Snapshot_store.create (Cluster.rt cluster) in
  Snapshot_store.take_all store;
  for i = 0 to 3 do
    check Alcotest.bool
      (Printf.sprintf "proc %d stored" i)
      true
      (Snapshot_store.latest store (Proc_id.of_int i) <> None)
  done

(* Bytes that do not read back (here: the disk drops the last byte)
   are counted, and the summary as taken is published instead. *)
let test_store_counts_decode_failures () =
  let cluster, _, _, _ = build_p2_like () in
  let rt = Cluster.rt cluster in
  let store =
    Snapshot_store.create ~read_back:(fun b -> String.sub b 0 (String.length b - 1)) rt
  in
  let failures () = Adgc_util.Stats.get rt.Adgc_rt.Runtime.stats "snapshot.decode_failures" in
  check Alcotest.int "none yet" 0 (failures ());
  let s = Snapshot_store.take store (Cluster.proc cluster 1) in
  check Alcotest.int "counted" 1 (failures ());
  check Alcotest.bool "taken summary published" true
    (Summary.equal s (Summarize.run ~now:0 (Cluster.proc cluster 1)));
  ignore (Snapshot_store.take store (Cluster.proc cluster 2) : Summary.t);
  check Alcotest.int "counted again" 2 (failures ())

(* ------------------------------------------------------------------ *)
(* Graph image (E2) *)

let test_graph_image_counts () =
  let cluster, _, _, _ = build_p2_like () in
  let image = Graph_image.of_process (Cluster.proc cluster 1) in
  check (Alcotest.option Alcotest.int) "objects" (Some 4) (Graph_image.object_count image)

let test_graph_image_stub_surcharge () =
  let cluster, _, _, _ = build_p2_like () in
  let p = Cluster.proc cluster 1 in
  let plain = Adgc_serial.Net_codec.encode (Graph_image.of_process p) in
  let with_stubs = Adgc_serial.Net_codec.encode (Graph_image.of_process ~include_stubs:true p) in
  check Alcotest.bool "stubs add bytes" true
    (String.length with_stubs > String.length plain)

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "StubsFrom" `Quick test_stubs_from;
      Alcotest.test_case "ScionsTo" `Quick test_scions_to;
      Alcotest.test_case "Local.Reach flag" `Quick test_local_reach_flag;
      Alcotest.test_case "scion target local reachability" `Quick
        test_scion_target_locally_reachable;
      Alcotest.test_case "internal refs compiled away" `Quick test_internal_refs_compiled_away;
      Alcotest.test_case "shared stub, multiple scions" `Quick test_shared_stub_multiple_scions;
      Alcotest.test_case "diamond + local cycle" `Quick test_diamond_and_cycle_local_structure;
      Alcotest.test_case "naive = condensed on random graphs" `Quick
        test_naive_equals_condensed_random;
      Alcotest.test_case "all summarizers agree under churn" `Quick
        test_all_summarizers_agree_under_churn;
      Alcotest.test_case "summary captures ICs" `Quick test_summary_captures_ics;
      Alcotest.test_case "summary is immutable" `Quick test_summary_is_immutable_snapshot;
      Alcotest.test_case "summary bytes roundtrip" `Quick test_summary_bytes_roundtrip;
      Alcotest.test_case "summary decode rejects junk" `Quick test_summary_decode_rejects_junk;
      Alcotest.test_case "incremental = full (known graph)" `Quick test_incremental_matches_full;
      Alcotest.test_case "incremental reuses clean regions" `Quick
        test_incremental_reuses_clean_regions;
      Alcotest.test_case "incremental sees root changes" `Quick test_incremental_detects_root_change;
      Alcotest.test_case "incremental = full (random churn)" `Quick
        test_incremental_random_equivalence;
      Alcotest.test_case "store: codec roundtrip publish" `Quick test_store_roundtrips_through_codec;
      Alcotest.test_case "store: take_all" `Quick test_store_take_all;
      Alcotest.test_case "store: counts decode failures" `Quick test_store_counts_decode_failures;
      Alcotest.test_case "graph image: object count" `Quick test_graph_image_counts;
      Alcotest.test_case "graph image: stub surcharge" `Quick test_graph_image_stub_surcharge;
    ] )
