(* Tests for graph summarization (StubsFrom / ScionsTo / Local.Reach),
   its parity with an independent per-scion reference, snapshot
   serialization and the heap imaging used by experiment E2. *)

open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Summarize = Adgc_snapshot.Summarize
module Graph_image = Adgc_paper.Graph_image
module Doc_codec = Adgc_paper.Doc_codec
module Snapshot_store = Adgc_snapshot.Snapshot_store

let check = Alcotest.check

let mk ?(n = 4) () = Cluster.create ~n ()

let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

(* The independent per-scion reference lives in summary_reference.ml
   (the integration suite checks published snapshots against it too). *)
module Sref = Summary_reference

let reference_summary = Sref.summary

let stubs_from = Sref.stubs_from

let scions_to = Sref.scions_to

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
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_scion summary (key 0 f.Heap.oid) with
  | Some si ->
      check Alcotest.int "one stub" 1 (Oid.Set.cardinal (stubs_from summary si));
      check Alcotest.bool "it is Q" true (Oid.Set.mem q.Heap.oid (stubs_from summary si));
      check Alcotest.bool "F not locally reachable" false
        (Summary.target_locally_reachable summary si)
  | None -> Alcotest.fail "scion missing from summary"

let test_scions_to () =
  let cluster, f, _, q = build_p2_like () in
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_stub summary q.Heap.oid with
  | Some st ->
      check Alcotest.int "one scion leads here" 1 (Ref_key.Set.cardinal (scions_to summary st));
      check Alcotest.bool "it is F's scion" true
        (Ref_key.Set.mem (key 0 f.Heap.oid) (scions_to summary st));
      check Alcotest.bool "not locally reachable" false (Summary.local_reach summary st)
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
  | Some st -> check Alcotest.bool "locally reachable" true (Summary.local_reach summary st)
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
  | Some si ->
      check Alcotest.bool "rooted target" true (Summary.target_locally_reachable summary si)
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
  | Some st ->
      check Alcotest.int "two scions converge" 2 (Ref_key.Set.cardinal (scions_to summary st))
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion summary (key 5 y.Heap.oid) with
  | Some si ->
      check Alcotest.bool "Y reaches the stub" true (Oid.Set.mem t.Heap.oid (stubs_from summary si))
  | None -> Alcotest.fail "Y scion missing"

let test_diamond_and_cycle_local_structure () =
  (* Local diamond with an internal cycle, remote ref at the bottom:
     the scion reaches the stub, as the reference agrees. *)
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
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 0) in
  check Alcotest.string "matches the reference"
    (Sref.encode (reference_summary ~now:0 (Cluster.proc cluster 0)))
    (Summary.bytes summary);
  match Summary.find_scion summary (key 2 top.Heap.oid) with
  | Some si ->
      check Alcotest.bool "reaches stub through diamond" true
        (Oid.Set.mem remote_obj.Heap.oid (stubs_from summary si))
  | None -> Alcotest.fail "scion missing"

(* Property: the condensed summarizer writes the bytes the reference
   encoder writes for the per-scion reference, and the view reads them
   back as that reference, on random graphs, on random graphs under
   churn (allocation, linking, unlinking, RMIs), and on many scions
   sharing one large region — the case the condensation exists for. *)
let agree ~label ~now p =
  let summary = Summarize.run ~now p in
  let reference = reference_summary ~now p in
  if Summary.bytes summary <> Sref.encode reference then
    Alcotest.failf "%s proc %a: summary bytes differ from the reference's" label Proc_id.pp
      p.Process.id;
  if not (Sref.equal (Sref.of_view summary) reference) then
    Alcotest.failf "%s proc %a: the view reads back other than the reference" label Proc_id.pp
      p.Process.id;
  summary

let test_matches_reference () =
  let agree ~label ~now p = ignore (agree ~label ~now p : Summary.t) in
  let random_cluster rng =
    let cluster = Cluster.create ~n:3 () in
    let _built =
      Adgc_workload.Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3
        ~root_prob:0.2
    in
    cluster
  in
  let rng = Adgc_util.Rng.create 2024 in
  for case = 1 to 25 do
    let cluster = random_cluster rng in
    for proc = 0 to 2 do
      agree ~label:(Printf.sprintf "random case %d" case) ~now:0 (Cluster.proc cluster proc)
    done
  done;
  List.iter
    (fun seed ->
      let cluster = random_cluster (Adgc_util.Rng.create seed) in
      let churn =
        Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed * 13 + 1)) ()
      in
      for round = 1 to 5 do
        for _ = 1 to 15 do
          Adgc_workload.Churn.step churn
        done;
        ignore (Cluster.drain cluster : int);
        for proc = 0 to 2 do
          agree
            ~label:(Printf.sprintf "churn seed %d round %d" seed round)
            ~now:round (Cluster.proc cluster proc)
        done
      done)
    [ 101; 202; 303 ];
  let shared = Adgc_bench.Bench_paper.make_shared_region_target ~scions:100 ~region:2_000 in
  agree ~label:"shared region" ~now:0 shared;
  let summary = Summarize.run ~now:0 shared in
  check Alcotest.int "shared region: every scion summarized" 100 (fst (Summary.counts summary));
  for si = 0 to fst (Summary.counts summary) - 1 do
    check Alcotest.int "shared region: each scion reaches the one stub" 1
      (Oid.Set.cardinal (stubs_from summary si))
  done

(* Parity on the structured shapes the random graphs rarely produce:
   the paper's figures and the workload families, every process. *)
let test_reference_parity_topology ~n build () =
  let cluster = Cluster.create ~n () in
  let _built : Adgc_workload.Topology.built = build cluster in
  for proc = 0 to n - 1 do
    ignore (agree ~label:"topology" ~now:0 (Cluster.proc cluster proc) : Summary.t)
  done

let topology_cases =
  let module T = Adgc_workload.Topology in
  List.map
    (fun (name, n, build) ->
      Alcotest.test_case ("reference parity: " ^ name) `Quick
        (test_reference_parity_topology ~n build))
    [
      ("fig3", 4, T.fig3);
      ("fig4", 6, T.fig4);
      ("fig5", 5, T.fig5);
      ("ring", 4, T.ring ~objs_per_proc:3 ~procs:[ 0; 1; 2; 3 ]);
      ("rooted ring", 4, T.rooted_ring ~objs_per_proc:3 ~procs:[ 0; 2; 3; 1 ]);
      ("hybrid", 3, T.hybrid);
      ("star cycles", 5, T.star_cycles ?arms:None);
      ("pairs", 5, T.pairs);
      ("lattice", 4, T.lattice ~rows:3 ~cols:4);
      ("chain into ring", 3, T.chain_into_ring ?chain:None ~procs:[ 0; 1; 2 ]);
      ( "web",
        4,
        fun cluster ->
          T.web ?pages_per_site:None ?cross_links:None ?back_prob:None cluster
            ~rng:(Adgc_util.Rng.create 7) );
    ]

(* ------------------------------------------------------------------ *)
(* Re-summarizing a mutated process: every snapshot is computed afresh
   over the heap's incrementally maintained adjacency, so each one must
   see exactly the mutations made since the last. *)

let stubs_from_of summary k =
  match Summary.find_scion summary k with
  | Some si -> stubs_from summary si
  | None -> Alcotest.fail "scion missing"

let test_resummarize_link_unlink () =
  let cluster, f, j, q = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let fk = key 0 f.Heap.oid in
  let s0 = agree ~label:"initial" ~now:0 p1 in
  check Alcotest.int "F reaches Q only" 1 (Oid.Set.cardinal (stubs_from_of s0 fk));
  (* Grow the scion's region: J -> extra -> R@P3. *)
  let extra = Mutator.alloc cluster ~proc:1 () in
  let r = Mutator.alloc cluster ~proc:2 () in
  Mutator.link cluster ~from_:j ~to_:extra;
  Mutator.wire_remote cluster ~holder:extra ~target:r;
  let s1 = agree ~label:"after link" ~now:1 p1 in
  check Alcotest.bool "F now reaches R" true (Oid.Set.mem r.Heap.oid (stubs_from_of s1 fk));
  check Alcotest.bool "and still Q" true (Oid.Set.mem q.Heap.oid (stubs_from_of s1 fk));
  (* Cut it again: the stub to R stays, but F no longer leads there. *)
  ignore (Heap.remove_ref p1.Process.heap j extra.Heap.oid : bool);
  let s2 = agree ~label:"after unlink" ~now:2 p1 in
  check Alcotest.bool "R dropped from F" false (Oid.Set.mem r.Heap.oid (stubs_from_of s2 fk));
  (match Summary.find_stub s2 r.Heap.oid with
  | Some st ->
      check Alcotest.int "R's stub has no scion" 0 (Ref_key.Set.cardinal (scions_to s2 st))
  | None -> Alcotest.fail "R's stub missing");
  check Alcotest.bool "F's stubs are back to Q alone" true
    (Oid.Set.equal (stubs_from_of s0 fk) (stubs_from_of s2 fk))

let test_resummarize_root_changes () =
  let cluster, f, _, q = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let flags summary =
    let si =
      match Summary.find_scion summary (key 0 f.Heap.oid) with
      | Some si -> si
      | None -> Alcotest.fail "scion missing"
    in
    match Summary.find_stub summary q.Heap.oid with
    | Some st ->
        (Summary.target_locally_reachable summary si, Summary.local_reach summary st)
    | None -> Alcotest.fail "stub missing"
  in
  let pair = Alcotest.(pair bool bool) in
  check pair "unrooted" (false, false) (flags (agree ~label:"unrooted" ~now:0 p1));
  Mutator.add_root cluster f;
  check pair "rooted at F" (true, true) (flags (agree ~label:"rooted" ~now:1 p1));
  Mutator.remove_root cluster f;
  check pair "unrooted again" (false, false) (flags (agree ~label:"unrooted again" ~now:2 p1))

(* Sweeping part of a scion's region leaves dead dense slots and
   dangling fields behind; neither may be traversed. *)
let test_resummarize_after_sweep () =
  let cluster, f, _, q = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let heap = p1.Process.heap in
  ignore (agree ~label:"before sweep" ~now:0 p1 : Summary.t);
  (* F -> {G, H}, G -> H -> J -> Q: sweeping G and H cuts every path
     from F to Q and leaves F's two fields dangling. *)
  let children = Array.to_list (Option.get (Heap.get heap f.Heap.oid)).Heap.fields |> List.filter_map Fun.id in
  check Alcotest.int "F has two children" 2 (List.length children);
  List.iter (Heap.remove heap) children;
  let s = agree ~label:"after sweep" ~now:1 p1 in
  check Alcotest.int "F reaches nothing" 0 (Oid.Set.cardinal (stubs_from_of s (key 0 f.Heap.oid)));
  match Summary.find_stub s q.Heap.oid with
  | Some st -> check Alcotest.int "Q's stub has no scion" 0 (Ref_key.Set.cardinal (scions_to s st))
  | None -> Alcotest.fail "stub missing"

(* Heavy sweeping makes the heap rebuild its dense interner, which
   reassigns every dense id; the summary must not notice. *)
let test_resummarize_across_dense_rebuild () =
  let cluster, f, _, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let heap = p1.Process.heap in
  let before = agree ~label:"before rebuild" ~now:0 p1 in
  let gen = Heap.dense_generation heap in
  let doomed = List.init 500 (fun _ -> Mutator.alloc cluster ~proc:1 ()) in
  List.iter (fun (o : Heap.obj) -> Mutator.link cluster ~from_:o ~to_:f) doomed;
  ignore (Heap.dense_sync heap : int);
  List.iter (fun (o : Heap.obj) -> Heap.remove heap o.Heap.oid) doomed;
  let after = agree ~label:"after rebuild" ~now:1 p1 in
  check Alcotest.bool "dense ids were reassigned" true (Heap.dense_generation heap > gen);
  check Alcotest.bool "same summary" true
    (Sref.equal { (Sref.of_view before) with Sref.taken_at = 1 } (Sref.of_view after))

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
  | Some st -> check Alcotest.int "stub ic in summary" 1 (Summary.stub_ic s0 st)
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion s1 (key 0 callee.Heap.oid) with
  | Some si ->
      check Alcotest.int "scion ic in summary" 1 (Summary.scion_ic s1 si);
      check Alcotest.bool "last_invoked recorded" true (Summary.last_invoked s1 si > 0)
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
  match Summary.of_bytes (Summary.bytes summary) with
  | Some s ->
      check Alcotest.bool "roundtrip" true (Sref.equal (Sref.of_view summary) (Sref.of_view s));
      check Alcotest.int "taken_at preserved" 7 (Summary.taken_at s)
  | None -> Alcotest.fail "the index pass failed"

let test_summary_index_rejects_junk () =
  List.iter
    (fun junk -> check Alcotest.bool "junk" true (Summary.of_bytes junk = None))
    [ ""; "\x03\x02" ]

(* Summarizer byte identity: over churned random heaps at fixed seeds,
   the summarizer's bytes are the reference encoder's bytes of the
   record-form reference, and the view over them answers every lookup
   as the reference does — for every key that occurs anywhere in the
   cluster, so keys absent from one process are asked too. *)
let test_summarizer_bytes_under_churn () =
  List.iter
    (fun seed ->
      let cluster = Cluster.create ~n:4 () in
      let rng = Adgc_util.Rng.create seed in
      let _built =
        Adgc_workload.Topology.random cluster ~rng ~objects:60 ~edges:120 ~remote_prob:0.3
          ~root_prob:0.15
      in
      let churn = Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed + 1)) () in
      for round = 1 to 6 do
        for _ = 1 to 20 do
          Adgc_workload.Churn.step churn
        done;
        ignore (Cluster.drain cluster : int);
        let references =
          List.init 4 (fun i -> reference_summary ~now:round (Cluster.proc cluster i))
        in
        let keys =
          List.concat_map
            (fun (r : Sref.t) ->
              List.map (fun (si : Sref.scion_info) -> si.Sref.key) r.Sref.scions
              @ List.map
                  (fun (st : Sref.stub_info) ->
                    Ref_key.make ~src:r.Sref.proc ~target:st.Sref.target)
                  r.Sref.stubs)
            references
        in
        List.iteri
          (fun i (reference : Sref.t) ->
            let label = Printf.sprintf "seed %d round %d proc %d" seed round i in
            let written = Summarize.run ~now:round (Cluster.proc cluster i) in
            let bytes = Summary.bytes written in
            check Alcotest.string (label ^ ": bytes") (Sref.encode reference) bytes;
            check Alcotest.bool (label ^ ": the writer's index reads as the reference") true
              (Sref.equal (Sref.of_view written) reference);
            let view = Option.get (Summary.of_bytes bytes) in
            let read = Sref.of_view view in
            let agrees find entries same k =
              match (find k, List.find_opt (same k) entries) with
              | None, None -> true
              | Some rank, Some entry -> List.nth entries rank == entry
              | Some _, None | None, Some _ -> false
            in
            check Alcotest.bool (label ^ ": the view reads as the reference") true
              (Sref.equal read reference);
            List.iter
              (fun k ->
                if
                  not
                    (agrees (Summary.find_scion view) reference.Sref.scions
                       (fun k (si : Sref.scion_info) -> Ref_key.equal si.Sref.key k)
                       k)
                then Alcotest.failf "%s: find_scion %a disagrees" label Ref_key.pp k;
                let target = k.Ref_key.target in
                if
                  not
                    (agrees (Summary.find_stub view) reference.Sref.stubs
                       (fun o (st : Sref.stub_info) -> Oid.equal st.Sref.target o)
                       target)
                then Alcotest.failf "%s: find_stub %a disagrees" label Oid.pp target)
              keys)
          references
      done)
    [ 5; 61; 977 ]

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
  check Alcotest.bool "published = returned" true (s == List.hd !received);
  check Alcotest.string "the summarizer's bytes"
    (Summary.bytes (Summarize.run ~now:0 (Cluster.proc cluster 1)))
    (Summary.bytes s)

let test_store_take_all () =
  let cluster, _, _, _ = build_p2_like () in
  let store = Snapshot_store.create (Cluster.rt cluster) in
  let published = ref [] in
  Snapshot_store.subscribe store (fun s -> published := s :: !published);
  Snapshot_store.take_all store;
  check Alcotest.(list int) "one publish per proc, in process order" [ 0; 1; 2; 3 ]
    (List.rev_map (fun s -> Proc_id.to_int (Summary.proc s)) !published)

(* Bytes that do not read back from the disk are counted, and the
   summary as taken is published instead: the disk drops the last
   byte, changes the first tag byte, or adds a trailing byte. *)
let store_rejects ~label read_back () =
  let cluster, _, _, _ = build_p2_like () in
  let rt = Cluster.rt cluster in
  let store = Snapshot_store.create ~read_back rt in
  let failures () = Adgc_util.Stats.get rt.Adgc_rt.Runtime.stats "snapshot.decode_failures" in
  check Alcotest.int "none yet" 0 (failures ());
  let s = Snapshot_store.take store (Cluster.proc cluster 1) in
  check Alcotest.int (label ^ ": counted") 1 (failures ());
  check Alcotest.string (label ^ ": taken summary published")
    (Summary.bytes (Summarize.run ~now:0 (Cluster.proc cluster 1)))
    (Summary.bytes s);
  check Alcotest.bool (label ^ ": and it reads as taken") true
    (Sref.equal (Sref.of_view s) (reference_summary ~now:0 (Cluster.proc cluster 1)));
  ignore (Snapshot_store.take store (Cluster.proc cluster 2) : Summary.t);
  check Alcotest.int (label ^ ": counted again") 2 (failures ())

let test_store_counts_decode_failures () =
  store_rejects ~label:"truncated" (fun b -> String.sub b 0 (String.length b - 1)) ()

let test_store_rejects_flipped_tag () =
  store_rejects ~label:"flipped tag"
    (fun b ->
      let b = Bytes.of_string b in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Bytes.to_string b)
    ()

let test_store_rejects_trailing_byte () =
  store_rejects ~label:"trailing byte" (fun b -> b ^ "\x00") ()

(* ------------------------------------------------------------------ *)
(* Graph image (E2) *)

let test_graph_image_counts () =
  let cluster, _, _, _ = build_p2_like () in
  let image = Graph_image.of_process (Cluster.proc cluster 1) in
  check (Alcotest.option Alcotest.int) "objects" (Some 4) (Graph_image.object_count image)

let test_graph_image_stub_surcharge () =
  let cluster, _, _, _ = build_p2_like () in
  let p = Cluster.proc cluster 1 in
  let plain = Doc_codec.encode (Graph_image.of_process p) in
  let with_stubs = Doc_codec.encode (Graph_image.of_process ~include_stubs:true p) in
  check Alcotest.bool "stubs add bytes" true
    (String.length with_stubs > String.length plain)

(* E2 measures the self-describing document codec, which writes named
   records whatever the wire types do: these images' bytes are pinned. *)
let test_graph_image_bytes_pinned () =
  let cluster, _, _, _ = build_p2_like () in
  let p = Cluster.proc cluster 1 in
  List.iter
    (fun (include_stubs, len, md5) ->
      let b = Doc_codec.encode (Graph_image.of_process ~include_stubs p) in
      let what = Printf.sprintf "stubs=%b" include_stubs in
      check Alcotest.int (what ^ ": length") len (String.length b);
      check Alcotest.string (what ^ ": digest") md5 (Digest.to_hex (Digest.string b)))
    [ (false, 229, "616800bf8bc2d3f5735a76eda31d583b"); (true, 310, "e4a80d71766c46d13b39097d3ef23c00") ]

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
      Alcotest.test_case "summarizer = per-scion reference" `Quick test_matches_reference;
      Alcotest.test_case "re-summarize after link and unlink" `Quick test_resummarize_link_unlink;
      Alcotest.test_case "re-summarize sees root changes" `Quick test_resummarize_root_changes;
      Alcotest.test_case "re-summarize after a sweep" `Quick test_resummarize_after_sweep;
      Alcotest.test_case "re-summarize across a dense rebuild" `Quick
        test_resummarize_across_dense_rebuild;
      Alcotest.test_case "summary captures ICs" `Quick test_summary_captures_ics;
      Alcotest.test_case "summary is immutable" `Quick test_summary_is_immutable_snapshot;
      Alcotest.test_case "summary bytes roundtrip" `Quick test_summary_bytes_roundtrip;
      Alcotest.test_case "summary index rejects junk" `Quick test_summary_index_rejects_junk;
      Alcotest.test_case "summarizer bytes = reference bytes under churn" `Quick
        test_summarizer_bytes_under_churn;
      Alcotest.test_case "store: codec roundtrip publish" `Quick test_store_roundtrips_through_codec;
      Alcotest.test_case "store: take_all" `Quick test_store_take_all;
      Alcotest.test_case "store: counts decode failures" `Quick test_store_counts_decode_failures;
      Alcotest.test_case "store: rejects a flipped tag byte" `Quick test_store_rejects_flipped_tag;
      Alcotest.test_case "store: rejects a trailing byte" `Quick test_store_rejects_trailing_byte;
      Alcotest.test_case "graph image: object count" `Quick test_graph_image_counts;
      Alcotest.test_case "graph image: stub surcharge" `Quick test_graph_image_stub_surcharge;
      Alcotest.test_case "graph image: bytes pinned" `Quick test_graph_image_bytes_pinned;
    ]
    @ topology_cases )
