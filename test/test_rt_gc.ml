(* Protocol tests: local collector, reference listing (export
   handshakes, stub sets, probes, healing) and RMI — including
   behaviour under message loss. *)

open Adgc_algebra
open Adgc_rt

let check = Alcotest.check

(* A quiet cluster: no periodic duties; tests drive GC by hand. *)
let mk ?(n = 3) ?(seed = 42) ?(drop = 0.0) ?config () =
  let net_config = Network.default_config () in
  net_config.Network.drop_prob <- drop;
  let cluster = Cluster.create ~seed ?config ~net_config ~n () in
  cluster

let settle cluster = ignore (Cluster.drain cluster : int)

(* Run k rounds of (LGC everywhere; stub sets everywhere; deliver). *)
let gc_rounds cluster k =
  let rt = Cluster.rt cluster in
  for _ = 1 to k do
    Array.iter (fun p -> ignore (Lgc.run rt p : Lgc.report)) rt.Runtime.procs;
    Array.iter (fun p -> Reflist.send_new_sets rt p) rt.Runtime.procs;
    settle cluster
  done

(* ------------------------------------------------------------------ *)
(* Lgc *)

let test_lgc_collects_unrooted () =
  let cluster = mk () in
  let p = Cluster.proc cluster 0 in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:0 () in
  Mutator.link cluster ~from_:a ~to_:b;
  Mutator.add_root cluster a;
  let r = Lgc.run (Cluster.rt cluster) p in
  check Alcotest.int "nothing swept" 0 r.Lgc.swept;
  Mutator.remove_root cluster a;
  let r = Lgc.run (Cluster.rt cluster) p in
  check Alcotest.int "both swept" 2 r.Lgc.swept;
  check Alcotest.int "heap empty" 0 (Heap.size p.Process.heap)

let test_lgc_scion_protects () =
  let cluster = mk () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let holder = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target:a;
  let p0 = Cluster.proc cluster 0 in
  let r = Lgc.run (Cluster.rt cluster) p0 in
  check Alcotest.int "scion kept it" 0 r.Lgc.swept;
  check Alcotest.bool "alive" true (Heap.mem p0.Process.heap a.Heap.oid)

let test_lgc_local_cycle_collected () =
  let cluster = mk () in
  let p = Cluster.proc cluster 0 in
  let a = Mutator.alloc cluster ~proc:0 () and b = Mutator.alloc cluster ~proc:0 () in
  Mutator.link cluster ~from_:a ~to_:b;
  Mutator.link cluster ~from_:b ~to_:a;
  let r = Lgc.run (Cluster.rt cluster) p in
  check Alcotest.int "local cycle swept" 2 r.Lgc.swept

let test_lgc_drops_dead_stubs () =
  let cluster = mk () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.add_root cluster target;
  Mutator.wire_remote cluster ~holder ~target;
  let p0 = Cluster.proc cluster 0 in
  (* First LGC: stub live. *)
  ignore (Lgc.run (Cluster.rt cluster) p0 : Lgc.report);
  check Alcotest.int "stub present" 1 (Stub_table.size p0.Process.stubs);
  Stub_table.clear_fresh p0.Process.stubs;
  Mutator.unwire_remote cluster ~holder ~target;
  let r = Lgc.run (Cluster.rt cluster) p0 in
  check Alcotest.int "stub dropped" 1 r.Lgc.stubs_dropped;
  check Alcotest.int "stub gone" 0 (Stub_table.size p0.Process.stubs)

let test_lgc_pre_sweep_hook () =
  let cluster = mk () in
  let rt = Cluster.rt cluster in
  let seen = ref [] in
  rt.Runtime.on_pre_sweep <- Some (fun _proc doomed -> seen := doomed @ !seen);
  let a = Mutator.alloc cluster ~proc:0 () in
  ignore (Lgc.run rt (Cluster.proc cluster 0) : Lgc.report);
  check Alcotest.int "hook saw the doomed object" 1 (List.length !seen);
  check Alcotest.bool "right oid" true (Oid.equal (List.hd !seen) a.Heap.oid)

(* ------------------------------------------------------------------ *)
(* Acyclic distributed GC: end-to-end chains *)

let test_acyclic_chain_reclaimed () =
  (* root -> a@P0 -> b@P1 -> c@P2; cut the root; everything goes. *)
  let cluster = mk () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  let c = Mutator.alloc cluster ~proc:2 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:c;
  Mutator.add_root cluster a;
  gc_rounds cluster 2;
  check Alcotest.int "all alive" 3 (Cluster.total_objects cluster);
  Mutator.remove_root cluster a;
  gc_rounds cluster 4;
  check Alcotest.int "all reclaimed" 0 (Cluster.total_objects cluster)

let test_acyclic_distributed_cycle_not_reclaimed () =
  (* The motivating limitation: without the DCDA, a distributed cycle
     survives reference listing forever. *)
  let cluster = mk ~n:2 () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:a;
  gc_rounds cluster 6;
  check Alcotest.int "cycle leaks under acyclic DGC" 2 (Cluster.total_objects cluster)

(* ------------------------------------------------------------------ *)
(* Export handshake *)

(* Set up: exporter at P0 holds a ref to w@P2 (owner) and sends it to
   P1 via an RMI argument. *)
let third_party_export ?(drop = 0.0) () =
  let cluster = mk ~drop () in
  let exporter = Mutator.alloc cluster ~proc:0 () in
  let receiver = Mutator.alloc cluster ~proc:1 () in
  let w = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster exporter;
  Mutator.add_root cluster receiver;
  Mutator.wire_remote cluster ~holder:exporter ~target:w;
  Mutator.wire_remote cluster ~holder:exporter ~target:receiver;
  (cluster, exporter, receiver, w)

let test_export_third_party_creates_scion () =
  let cluster, _, receiver, w = third_party_export () in
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ w.Heap.oid ]
    ~behavior:Mutator.store_args ();
  settle cluster;
  let owner = Cluster.proc cluster 2 in
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:w.Heap.oid in
  check Alcotest.bool "scion for new holder" true (Scion_table.mem owner.Process.scions key);
  (* The receiver installed the ref and got a stub. *)
  let p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "stub at receiver" true (Stub_table.mem p1.Process.stubs w.Heap.oid)

let test_export_pin_released_after_ack () =
  let cluster, _, receiver, w = third_party_export () in
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ w.Heap.oid ]
    ~behavior:Mutator.store_args ();
  settle cluster;
  let p0 = Cluster.proc cluster 0 in
  match Stub_table.find p0.Process.stubs w.Heap.oid with
  | Some e -> check Alcotest.int "no pins left" 0 e.Stub_table.pins
  | None -> Alcotest.fail "exporter lost its stub"

let test_export_safe_when_exporter_drops_ref () =
  (* The exporter passes its only reference away and immediately drops
     it; the object must survive the transfer even though the
     exporter's advertisement will stop listing it. *)
  let cluster, exporter, receiver, w = third_party_export () in
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ w.Heap.oid ]
    ~behavior:Mutator.store_args ();
  Mutator.unwire_remote cluster ~holder:exporter ~target:w;
  gc_rounds cluster 5;
  let p2 = Cluster.proc cluster 2 in
  check Alcotest.bool "object survived the transfer" true (Heap.mem p2.Process.heap w.Heap.oid);
  (* And only the receiver's scion remains. *)
  let key01 = Ref_key.make ~src:(Proc_id.of_int 0) ~target:w.Heap.oid in
  let key11 = Ref_key.make ~src:(Proc_id.of_int 1) ~target:w.Heap.oid in
  check Alcotest.bool "exporter scion gone" false (Scion_table.mem p2.Process.scions key01);
  check Alcotest.bool "receiver scion present" true (Scion_table.mem p2.Process.scions key11)

let test_export_notice_retry_under_loss () =
  (* 60% loss: the notice handshake must still complete via retries. *)
  let cluster, _, receiver, w = third_party_export ~drop:0.6 () in
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ w.Heap.oid ]
    ~behavior:Mutator.store_args ();
  (* Run long enough for retries; drain is unbounded in time. *)
  Cluster.run_for cluster 50_000;
  let owner = Cluster.proc cluster 2 in
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:w.Heap.oid in
  let stats = Cluster.stats cluster in
  (* Either the notice eventually landed, or (if the request itself
     was dropped) nothing happened at all — in which case there is no
     new holder and no scion is needed.  Distinguish via rmi.served. *)
  if Adgc_util.Stats.get stats "rmi.served" > 0 then
    check Alcotest.bool "scion created despite loss" true
      (Scion_table.mem owner.Process.scions key)

let test_healing_after_lost_notice () =
  (* Force-drop every export notice and ack, then let the receiver's
     stub set heal the scion. *)
  let cluster, _, receiver, w = third_party_export () in
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 2);
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ w.Heap.oid ]
    ~behavior:Mutator.store_args ();
  Cluster.run_for cluster 2_000;
  (* The notice never arrives; the RMI did (P0 -> P1 is open), so P1
     holds the ref.  Now P1 advertises its stubs. *)
  let rt = Cluster.rt cluster in
  Reflist.send_new_sets rt (Cluster.proc cluster 1);
  settle cluster;
  let owner = Cluster.proc cluster 2 in
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:w.Heap.oid in
  check Alcotest.bool "healed scion" true (Scion_table.mem owner.Process.scions key);
  check Alcotest.bool "healed scions count" true
    (Adgc_util.Stats.get (Cluster.stats cluster) "reflist.scions_healed" >= 1);
  Network.unblock_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 2)

let test_probe_recovers_lost_final_set () =
  (* P0 references w@P1, then drops it, but the (empty) stub set is
     lost; the owner's probe must recover the scion deletion. *)
  let cluster = mk ~n:2 () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let w = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target:w;
  gc_rounds cluster 2;
  (* Drop the reference; blackhole P0 -> P1 while its sets would go out. *)
  Mutator.unwire_remote cluster ~holder ~target:w;
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
  gc_rounds cluster 3;
  Network.unblock_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
  let p1 = Cluster.proc cluster 1 in
  let key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:w.Heap.oid in
  check Alcotest.bool "scion leaked so far" true (Scion_table.mem p1.Process.scions key);
  (* Probe: owner asks the silent holder. *)
  Reflist.probe_idle_scions (Cluster.rt cluster) p1 ~threshold:0;
  settle cluster;
  check Alcotest.bool "scion reclaimed after probe" false (Scion_table.mem p1.Process.scions key);
  ignore (Lgc.run (Cluster.rt cluster) p1 : Lgc.report);
  check Alcotest.bool "object reclaimed" false (Heap.mem p1.Process.heap w.Heap.oid)

let test_owner_side_export () =
  (* P0 sends its own object to P1: scion must exist before the
     message even arrives (synchronous creation). *)
  let cluster = mk ~n:2 () in
  let mine = Mutator.alloc cluster ~proc:0 () in
  let receiver = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster mine;
  Mutator.add_root cluster receiver;
  Mutator.wire_remote cluster ~holder:mine ~target:receiver;
  Mutator.call cluster ~src:0 ~target:receiver.Heap.oid ~args:[ mine.Heap.oid ]
    ~behavior:Mutator.store_args ();
  (* Before any delivery: *)
  let p0 = Cluster.proc cluster 0 in
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:mine.Heap.oid in
  check Alcotest.bool "scion pre-created" true (Scion_table.mem p0.Process.scions key);
  settle cluster

(* ------------------------------------------------------------------ *)
(* RMI *)

let rmi_pair ?(drop = 0.0) () =
  let cluster = mk ~n:2 ~drop () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster callee;
  Mutator.wire_remote cluster ~holder:caller ~target:callee;
  (cluster, caller, callee)

let test_rmi_bumps_ics () =
  let cluster, _, callee = rmi_pair () in
  Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid;
  settle cluster;
  let p0 = Cluster.proc cluster 0 and p1 = Cluster.proc cluster 1 in
  check (Alcotest.option Alcotest.int) "stub ic" (Some 1)
    (Stub_table.ic p0.Process.stubs callee.Heap.oid);
  let key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:callee.Heap.oid in
  check (Alcotest.option Alcotest.int) "scion ic" (Some 1) (Scion_table.ic p1.Process.scions key)

let test_rmi_reply_runs_continuation () =
  let cluster, _, callee = rmi_pair () in
  let got = ref None in
  Mutator.call cluster ~src:0 ~target:callee.Heap.oid
    ~behavior:Mutator.return_field_refs
    ~on_reply:(fun results -> got := Some results)
    ();
  settle cluster;
  check Alcotest.bool "reply arrived" true (!got <> None)

let test_rmi_behavior_mutates_callee () =
  let cluster, _, callee = rmi_pair () in
  let arg = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster arg;
  Mutator.call cluster ~src:0 ~target:callee.Heap.oid ~args:[ arg.Heap.oid ]
    ~behavior:Mutator.store_args ();
  settle cluster;
  let held = Array.to_list callee.Heap.fields |> List.filter_map (fun f -> f) in
  check Alcotest.bool "callee holds the arg" true
    (List.exists (fun o -> Oid.equal o arg.Heap.oid) held)

let test_rmi_results_create_stubs () =
  let cluster, _, callee = rmi_pair () in
  (* The callee returns one of its own objects; the caller must end up
     with a stub and the callee with a scion. *)
  let inner = Mutator.alloc cluster ~proc:1 () in
  Mutator.link cluster ~from_:callee ~to_:inner;
  Mutator.call cluster ~src:0 ~target:callee.Heap.oid ~behavior:Mutator.return_field_refs ();
  settle cluster;
  let p0 = Cluster.proc cluster 0 and p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "stub for result" true (Stub_table.mem p0.Process.stubs inner.Heap.oid);
  let key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:inner.Heap.oid in
  check Alcotest.bool "scion for result" true (Scion_table.mem p1.Process.scions key)

let test_rmi_to_collected_object () =
  let cluster, _, callee = rmi_pair () in
  (* Kill the callee object bypassing the protocol, then call. *)
  let p1 = Cluster.proc cluster 1 in
  Heap.remove_root p1.Process.heap callee.Heap.oid;
  List.iter
    (fun (e : Scion_table.entry) ->
      if Oid.equal e.Scion_table.key.Ref_key.target callee.Heap.oid then
        ignore (Scion_table.delete p1.Process.scions e.Scion_table.key : bool))
    (Scion_table.entries p1.Process.scions);
  ignore (Lgc.run (Cluster.rt cluster) p1 : Lgc.report);
  Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid;
  settle cluster;
  check Alcotest.int "dangling counted" 1
    (Adgc_util.Stats.get (Cluster.stats cluster) "rmi.dangling")

let test_rmi_requires_stub () =
  let cluster = mk ~n:2 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  Alcotest.check_raises "no stub"
    (Invalid_argument
       (Format.asprintf "Rmi.call: %a holds no stub for %a" Proc_id.pp (Proc_id.of_int 0) Oid.pp
          callee.Heap.oid))
    (fun () -> Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid)

let test_rmi_rejects_local_target () =
  let cluster = mk ~n:2 () in
  let obj = Mutator.alloc cluster ~proc:0 () in
  Alcotest.check_raises "local target"
    (Invalid_argument
       (Format.asprintf "Rmi.call: %a is local to %a" Oid.pp obj.Heap.oid Proc_id.pp
          (Proc_id.of_int 0)))
    (fun () -> Mutator.invoke cluster ~src:0 ~target:obj.Heap.oid)

let test_rmi_pin_timeout_releases () =
  (* Drop everything: the pin must be released by the timeout so the
     stub can die. *)
  let cluster, _, callee = rmi_pair ~drop:1.0 () in
  Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid;
  let p0 = Cluster.proc cluster 0 in
  (match Stub_table.find p0.Process.stubs callee.Heap.oid with
  | Some e -> check Alcotest.int "pinned during call" 1 e.Stub_table.pins
  | None -> Alcotest.fail "stub missing");
  Cluster.run_for cluster 10_000;
  (match Stub_table.find p0.Process.stubs callee.Heap.oid with
  | Some e -> check Alcotest.int "released by timeout" 0 e.Stub_table.pins
  | None -> Alcotest.fail "stub missing");
  check Alcotest.int "timeout counted" 1
    (Adgc_util.Stats.get (Cluster.stats cluster) "rmi.pin_timeouts")

let test_rmi_replies_keep_counters_in_step () =
  (* Only requests bump the stub counter; replies leave it alone, so
     after each answered call the scion already holds the stub's value
     and a stub set changes nothing. *)
  let cluster, _, callee = rmi_pair () in
  let replies = ref 0 in
  for _ = 1 to 3 do
    Mutator.call cluster ~src:0 ~target:callee.Heap.oid
      ~on_reply:(fun _ -> incr replies)
      ();
    settle cluster
  done;
  check Alcotest.int "three replies" 3 !replies;
  let p0 = Cluster.proc cluster 0 and p1 = Cluster.proc cluster 1 in
  let key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:callee.Heap.oid in
  check (Alcotest.option Alcotest.int) "stub ic" (Some 3)
    (Stub_table.ic p0.Process.stubs callee.Heap.oid);
  check (Alcotest.option Alcotest.int) "scion ic" (Some 3) (Scion_table.ic p1.Process.scions key);
  Reflist.send_new_sets (Cluster.rt cluster) p0;
  settle cluster;
  check (Alcotest.option Alcotest.int) "scion unchanged by the stub set" (Some 3)
    (Scion_table.ic p1.Process.scions key)

let test_rmi_nested_calls () =
  (* P0 calls x@P1 whose behaviour calls y@P2. *)
  let cluster = mk ~n:3 () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let x = Mutator.alloc cluster ~proc:1 () in
  let y = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster x;
  Mutator.add_root cluster y;
  Mutator.wire_remote cluster ~holder:caller ~target:x;
  Mutator.wire_remote cluster ~holder:x ~target:y;
  let inner_ran = ref false in
  let outer rt (_p : Process.t) ~target:_ ~args:_ =
    Rmi.call rt ~src:(Proc_id.of_int 1) ~target:y.Heap.oid
      ~behavior:(fun _ _ ~target:_ ~args:_ ->
        inner_ran := true;
        [])
      ();
    []
  in
  Mutator.call cluster ~src:0 ~target:x.Heap.oid ~behavior:outer ();
  settle cluster;
  check Alcotest.bool "nested call ran" true !inner_ran;
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:y.Heap.oid in
  check (Alcotest.option Alcotest.int) "inner ic" (Some 1)
    (Scion_table.ic (Cluster.proc cluster 2).Process.scions key)

let test_call_sync () =
  let cluster, _, callee = rmi_pair () in
  (match
     Scaffold.call_sync cluster ~src:0 ~target:callee.Heap.oid
       ~behavior:Mutator.return_field_refs ()
   with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "expected no refs"
  | None -> Alcotest.fail "reply lost on a lossless network");
  (* Under total loss the call reports failure. *)
  let cluster, _, callee = rmi_pair ~drop:1.0 () in
  check Alcotest.bool "lost call" true
    (Scaffold.call_sync cluster ~src:0 ~target:callee.Heap.oid () = None)

(* ------------------------------------------------------------------ *)
(* Paged persistent store *)

module Pstore = Adgc_paper.Pstore

let owner0 = Proc_id.of_int 0

let test_pstore_basics () =
  let store = Pstore.create ~capacity:2 () in
  let o1 = Oid.make ~owner:owner0 ~serial:1
  and o2 = Oid.make ~owner:owner0 ~serial:2
  and o3 = Oid.make ~owner:owner0 ~serial:3 in
  Pstore.touch store o1;
  Pstore.touch store o2;
  check Alcotest.int "two loads" 2 (Pstore.loads store);
  Pstore.touch store o1;
  check Alcotest.int "one hit" 1 (Pstore.hits store);
  (* o2 is now the LRU; loading o3 evicts it. *)
  Pstore.touch store o3;
  check Alcotest.int "one eviction" 1 (Pstore.evictions store);
  check Alcotest.bool "o2 evicted" false (Pstore.resident store o2);
  check Alcotest.bool "o1 kept" true (Pstore.resident store o1);
  check Alcotest.int "at capacity" 2 (Pstore.resident_count store)

let test_pstore_forget () =
  let store = Pstore.create ~capacity:4 () in
  let o = Oid.make ~owner:owner0 ~serial:1 in
  Pstore.touch store o;
  Pstore.forget store o;
  check Alcotest.bool "gone" false (Pstore.resident store o);
  Pstore.touch store o;
  check Alcotest.int "reload counted" 2 (Pstore.loads store)

let test_pstore_collect_forgets_swept () =
  (* Three live objects and one garbage object, all resident.  The
     collection sweeps the garbage and forgets it; it then touches the
     survivors in ascending oid order, so with room for two the lowest
     survivor is the one evicted. *)
  let cluster = mk ~n:1 () in
  let p = Cluster.proc cluster 0 in
  let root = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster root;
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:0 () in
  Mutator.link cluster ~from_:root ~to_:a;
  Mutator.link cluster ~from_:a ~to_:b;
  let garbage = Mutator.alloc cluster ~proc:0 () in
  let store = Pstore.create ~capacity:4 () in
  List.iter (fun (o : Heap.obj) -> Pstore.touch store o.Heap.oid) [ root; a; b; garbage ];
  Pstore.reset_counters store;
  ignore (Pstore.collect store (Cluster.rt cluster) p : Lgc.report);
  check Alcotest.bool "garbage forgotten" false (Pstore.resident store garbage.Heap.oid);
  check Alcotest.int "survivors resident" 3 (Pstore.resident_count store);
  check Alcotest.int "all hits" 3 (Pstore.hits store);
  let small = Pstore.create ~capacity:2 () in
  ignore (Pstore.collect small (Cluster.rt cluster) p : Lgc.report);
  let lowest = List.hd (List.sort Oid.compare [ root.Heap.oid; a.Heap.oid; b.Heap.oid ]) in
  check Alcotest.int "three loads" 3 (Pstore.loads small);
  check Alcotest.bool "lowest survivor evicted" false (Pstore.resident small lowest)

let test_pstore_lgc_thrashing () =
  (* A store smaller than the live set: every LGC reloads; garbage
     inflates the working set — the intro's "object loading on primary
     memory" cost. *)
  let cluster = mk ~n:1 () in
  let p = Cluster.proc cluster 0 in
  let rt = Cluster.rt cluster in
  let store = Pstore.create ~capacity:8 () in
  let root = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster root;
  let prev = ref root in
  for _ = 1 to 20 do
    let o = Mutator.alloc cluster ~proc:0 () in
    Mutator.link cluster ~from_:!prev ~to_:o;
    prev := o
  done;
  ignore (Pstore.collect store rt p : Lgc.report);
  let first = Pstore.loads store in
  check Alcotest.int "21 loads on first trace" 21 first;
  ignore (Pstore.collect store rt p : Lgc.report);
  (* Working set (21) exceeds capacity (8): the second trace reloads
     too — thrashing. *)
  check Alcotest.bool "thrashes" true (Pstore.loads store >= 2 * first - 8);
  (* With a big-enough store, the second trace is all hits. *)
  let big = Pstore.create ~capacity:64 () in
  ignore (Pstore.collect big rt p : Lgc.report);
  let after_warm = Pstore.loads big in
  ignore (Pstore.collect big rt p : Lgc.report);
  check Alcotest.int "no further loads" after_warm (Pstore.loads big)

(* ------------------------------------------------------------------ *)
(* Replication (OBIWAN) *)

let test_replicate_copies_references () =
  (* P2 owns [shared]; P1's object [orig] references it; P0 replicates
     [orig] and must end up holding the same remote reference, with
     proper stubs and scions everywhere. *)
  let cluster = mk ~n:3 () in
  let requester = Mutator.alloc cluster ~proc:0 () in
  let orig = Mutator.alloc cluster ~proc:1 () in
  let shared = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster requester;
  Mutator.add_root cluster orig;
  Mutator.wire_remote cluster ~holder:orig ~target:shared;
  Mutator.wire_remote cluster ~holder:requester ~target:orig;
  let replica = ref None in
  Scaffold.replicate cluster ~src:0 ~target:orig.Heap.oid ~on_replica:(fun oid ->
      replica := Some oid);
  settle cluster;
  match !replica with
  | None -> Alcotest.fail "replica never arrived"
  | Some replica_oid ->
      let p0 = Cluster.proc cluster 0 in
      check Alcotest.bool "replica allocated at P0" true (Heap.mem p0.Process.heap replica_oid);
      (* The replica holds the shared reference; DGC structures exist. *)
      check Alcotest.bool "stub for shared at P0" true
        (Stub_table.mem p0.Process.stubs shared.Heap.oid);
      let owner = Cluster.proc cluster 2 in
      let key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:shared.Heap.oid in
      check Alcotest.bool "scion (P0, shared) at P2" true (Scion_table.mem owner.Process.scions key)

let test_replica_keeps_targets_alive () =
  let cluster = mk ~n:3 () in
  let requester = Mutator.alloc cluster ~proc:0 () in
  let orig = Mutator.alloc cluster ~proc:1 () in
  let shared = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster requester;
  Mutator.add_root cluster orig;
  Mutator.wire_remote cluster ~holder:orig ~target:shared;
  Mutator.wire_remote cluster ~holder:requester ~target:orig;
  Scaffold.replicate cluster ~src:0 ~target:orig.Heap.oid ~on_replica:(fun oid ->
      let p0 = Cluster.proc cluster 0 in
      (* Root the replica and let go of the original. *)
      Heap.add_root p0.Process.heap oid;
      Mutator.unwire_remote cluster ~holder:requester ~target:orig);
  settle cluster;
  (* The original dies with its root... *)
  Mutator.remove_root cluster orig;
  gc_rounds cluster 6;
  let p1 = Cluster.proc cluster 1 and p2 = Cluster.proc cluster 2 in
  check Alcotest.bool "original collected" false (Heap.mem p1.Process.heap orig.Heap.oid);
  (* ...but the replica keeps the shared target alive. *)
  check Alcotest.bool "shared survives via the replica" true
    (Heap.mem p2.Process.heap shared.Heap.oid)

let test_replicate_under_loss () =
  (* The replication RMI itself may be dropped; nothing breaks, and a
     retry succeeds once the network heals. *)
  let cluster = mk ~n:2 ~drop:1.0 () in
  let requester = Mutator.alloc cluster ~proc:0 () in
  let orig = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster requester;
  Mutator.add_root cluster orig;
  Mutator.wire_remote cluster ~holder:requester ~target:orig;
  let got = ref 0 in
  Scaffold.replicate cluster ~src:0 ~target:orig.Heap.oid ~on_replica:(fun _ -> incr got);
  Cluster.run_for cluster 20_000;
  check Alcotest.int "no replica under total loss" 0 !got;
  (Network.config (Cluster.net cluster)).Network.drop_prob <- 0.0;
  Scaffold.replicate cluster ~src:0 ~target:orig.Heap.oid ~on_replica:(fun _ -> incr got);
  settle cluster;
  check Alcotest.int "replica after heal" 1 !got

(* ------------------------------------------------------------------ *)
(* DGC message batching *)

module Stats = Adgc_util.Stats

let window_config window = { (Runtime.default_config ()) with Runtime.dgc_window = window }

let empty_set seqno = Msg.New_set_stubs { seqno; serials = [||]; ics = [||] }

let test_batching_coalesces () =
  let cluster = mk ~n:2 ~config:(window_config 5) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let src = Proc_id.of_int 0 and dst = Proc_id.of_int 1 in
  Runtime.send_dgc rt ~src ~dst (empty_set 1);
  Runtime.send_dgc rt ~src ~dst (empty_set 2);
  check Alcotest.int "nothing on the wire before the flush" 0 (Stats.get stats "net.msg.sent");
  settle cluster;
  check Alcotest.int "one envelope" 1 (Stats.get stats "net.msg.sent");
  check Alcotest.int "two payloads coalesced" 2 (Stats.get stats "net.msg.batched");
  check Alcotest.int "one flush" 1 (Stats.get stats "net.msg.batch_flushes");
  check Alcotest.int "unpacked at delivery" 2 (Stats.get stats "net.msg.unbatched");
  (* Batches are reference-free by construction. *)
  let target = Oid.make ~owner:dst ~serial:0 in
  Alcotest.check_raises "a payload with references is refused"
    (Invalid_argument "Runtime.send_dgc: a rmi_reply payload carries references") (fun () ->
      Runtime.send_dgc rt ~src ~dst (Msg.Rmi_reply { req_id = 1; target; results = [] }))

let test_batching_single_payload_travels_plain () =
  let cluster = mk ~n:2 ~config:(window_config 5) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  Runtime.send_dgc rt ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) (empty_set 1);
  settle cluster;
  check Alcotest.int "one message" 1 (Stats.get stats "net.msg.sent");
  check Alcotest.int "no batch envelope" 0 (Stats.get stats "net.msg.sent.batch");
  check Alcotest.int "nothing counted as batched" 0 (Stats.get stats "net.msg.batched")

(* The model checker runs with a frozen clock and [dgc_window = 0]: a
   queued payload must reach the wire inside [send_dgc] itself, with
   nothing left for the scheduler to do. *)
let test_window_zero_is_synchronous () =
  let net_config = Network.default_config () in
  net_config.Network.delivery <- Network.Manual;
  let cluster = Cluster.create ~config:(window_config 0) ~net_config ~n:2 () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let src = Proc_id.of_int 0 and dst = Proc_id.of_int 1 in
  Runtime.send_dgc rt ~src ~dst (empty_set 1);
  Runtime.send_dgc rt ~src ~dst Msg.Scion_probe;
  check Alcotest.int "both payloads on the wire" 2 (Network.in_flight_count (Cluster.net cluster));
  check Alcotest.int "each as a plain message" 0 (Stats.get stats "net.msg.sent.batch");
  check Alcotest.int "no queue left behind" 0
    (Hashtbl.length (Cluster.proc cluster 0).Process.pending_batches);
  check Alcotest.int "nothing scheduled" 0 (Scheduler.drain (Cluster.sched cluster))

(* One route: each destination has its own queue, so a sender's
   payloads for two processes leave as two envelopes, each straight to
   its final destination and handled there as sent by the true
   sender. *)
let test_batching_queues_per_destination () =
  let cluster = mk ~n:3 ~config:(window_config 5) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let src = Proc_id.of_int 0 in
  List.iter
    (fun d ->
      let dst = Proc_id.of_int d in
      Runtime.send_dgc rt ~src ~dst (empty_set 1);
      Runtime.send_dgc rt ~src ~dst (empty_set 2))
    [ 1; 2 ];
  check Alcotest.int "one queue per destination" 2
    (Hashtbl.length (Cluster.proc cluster 0).Process.pending_batches);
  settle cluster;
  check Alcotest.int "one batch envelope per destination" 2 (Stats.get stats "net.msg.sent.batch");
  check Alcotest.int "nothing else sent" 2 (Stats.get stats "net.msg.sent");
  check Alcotest.int "every payload batched" 4 (Stats.get stats "net.msg.batched");
  List.iter
    (fun d ->
      check Alcotest.int
        (Printf.sprintf "P%d handled both sets from P0" d)
        2
        (Scion_table.last_seqno (Cluster.proc cluster d).Process.scions src))
    [ 1; 2 ]

(* Crash-stop applies when the window closes: a sender that dies with
   a queue open puts nothing on the wire. *)
let test_batching_dead_sender_sends_nothing () =
  let cluster = mk ~n:2 ~config:(window_config 5) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let src = Proc_id.of_int 0 and dst = Proc_id.of_int 1 in
  Runtime.send_dgc rt ~src ~dst (empty_set 1);
  Runtime.send_dgc rt ~src ~dst Msg.Scion_probe;
  Cluster.crash cluster 0;
  settle cluster;
  check Alcotest.int "nothing on the wire" 0 (Stats.get stats "net.msg.sent");
  check Alcotest.int "the flush met a dead endpoint" 1 (Stats.get stats "net.msg.dead_endpoint");
  check Alcotest.int "the queue is gone" 0
    (Hashtbl.length (Cluster.proc cluster 0).Process.pending_batches)

(* The window opens with a queue's first payload and closes
   [dgc_window] ticks later: a payload that joins an open queue does
   not push the close back, and one sent after the close opens a new
   queue. *)
let test_batching_window_closes_on_time () =
  let cluster = mk ~n:2 ~config:(window_config 50) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  let sched = Cluster.sched cluster in
  let src = Proc_id.of_int 0 and dst = Proc_id.of_int 1 in
  let queues () = Hashtbl.length (Cluster.proc cluster 0).Process.pending_batches in
  let t0 = Scheduler.now sched in
  Runtime.send_dgc rt ~src ~dst (empty_set 1);
  Scheduler.run_until sched ~time:(t0 + 30);
  Runtime.send_dgc rt ~src ~dst (empty_set 2);
  Scheduler.run_until sched ~time:(t0 + 49);
  check Alcotest.int "still queued one tick before the close" 1 (queues ());
  check Alcotest.int "no flush yet" 0 (Stats.get stats "net.msg.batch_flushes");
  Scheduler.run_until sched ~time:(t0 + 50);
  check Alcotest.int "closed on time" 0 (queues ());
  check Alcotest.int "one flush" 1 (Stats.get stats "net.msg.batch_flushes");
  check Alcotest.int "carrying both payloads" 2 (Stats.get stats "net.msg.batched");
  Runtime.send_dgc rt ~src ~dst (empty_set 3);
  check Alcotest.int "a later payload opens a new queue" 1 (queues ());
  settle cluster;
  check Alcotest.int "which leaves on its own" 0 (queues ());
  check Alcotest.int "all three sets handled" 3
    (Scion_table.last_seqno (Cluster.proc cluster 1).Process.scions src)

(* Every sender's queue closes on its own window; none is left behind
   and no window sends twice. *)
let test_batching_every_queue_drains () =
  let cluster = mk ~n:3 ~config:(window_config 50) () in
  let rt = Cluster.rt cluster in
  let stats = Cluster.stats cluster in
  List.iter
    (fun (s, d) -> Runtime.send_dgc rt ~src:(Proc_id.of_int s) ~dst:(Proc_id.of_int d) (empty_set 1))
    [ (0, 1); (1, 2); (2, 0) ];
  check Alcotest.int "nothing sent inside the windows" 0 (Stats.get stats "net.msg.sent");
  settle cluster;
  check Alcotest.int "one message per queue" 3 (Stats.get stats "net.msg.sent");
  Array.iter
    (fun (p : Process.t) ->
      check Alcotest.int "no queue left" 0 (Hashtbl.length p.Process.pending_batches))
    rt.Runtime.procs

let test_batching_chain_reclaimed () =
  (* The acyclic end-to-end scenario converges when every stub set
     rides inside a batch. *)
  let cluster = mk () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  let c = Mutator.alloc cluster ~proc:2 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:c;
  Mutator.add_root cluster a;
  gc_rounds cluster 2;
  check Alcotest.int "all alive" 3 (Cluster.total_objects cluster);
  Mutator.remove_root cluster a;
  gc_rounds cluster 4;
  check Alcotest.int "all reclaimed" 0 (Cluster.total_objects cluster)

let test_batching_cuts_clique_traffic () =
  (* Every process holds a reference into every other; one stub-set +
     probe round therefore queues a stub set and a probe per (src,
     dst) pair, which share one envelope, and each probe is answered
     by a stub set of its own a window later. *)
  let n = 6 in
  let cluster = mk ~n ~seed:7 ~config:(window_config 5) () in
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
  let stats = Cluster.stats cluster in
  let sent () = Stats.get stats "net.msg.sent" in
  let payloads () = Stats.get stats "reflist.sets_sent" + Stats.get stats "reflist.probes_sent" in
  let sent0 = sent () and payloads0 = payloads () in
  let rt = Cluster.rt cluster in
  Array.iter
    (fun p ->
      Reflist.send_new_sets rt p;
      Reflist.probe_idle_scions rt p ~threshold:1)
    rt.Runtime.procs;
  settle cluster;
  let envelopes = sent () - sent0 and payloads = payloads () - payloads0 in
  check Alcotest.int "three payloads per ordered pair" (3 * n * (n - 1)) payloads;
  check Alcotest.int
    (Printf.sprintf "two envelopes per ordered pair (%d envelopes for %d payloads)" envelopes
       payloads)
    (2 * n * (n - 1)) envelopes

let test_batching_detection_converges () =
  (* A distributed cycle is still found and reclaimed when CDMs and
     stub sets travel batched. *)
  let config = Adgc.Config.quick ~n_procs:3 () in
  let runtime = { config.Adgc.Config.runtime with Runtime.dgc_window = 5 } in
  let config = { config with Adgc.Config.runtime = runtime } in
  let sim = Adgc.Sim.create ~config () in
  let _built = Adgc_workload.Topology.ring (Adgc.Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Adgc.Sim.start sim;
  check Alcotest.bool "cycle reclaimed with batching on" true
    (Adgc.Sim.run_until_clean ~step:1_000 ~max_time:300_000 sim)

(* ------------------------------------------------------------------ *)
(* Duplicate delivery (network replay) idempotence.  The envelope
   sequence number makes every handler run at most once per sequenced
   envelope; an application-level replay inside a fresh envelope is
   additionally stale-guarded by the stub-set seqno. *)

let scion_state (p : Process.t) =
  List.map
    (fun (e : Scion_table.entry) -> (e.Scion_table.key, e.Scion_table.ic, e.Scion_table.confirmed))
    (Scion_table.entries p.Process.scions)

let mk_wired () =
  let cluster = mk ~n:2 () in
  let target = Mutator.alloc cluster ~proc:0 () in
  let holder = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  (cluster, Oid.Map.singleton target.Heap.oid 0)

let test_duplicate_new_set_idempotent () =
  let cluster, targets = mk_wired () in
  let stats = Cluster.stats cluster in
  let p0 = Cluster.proc cluster 0 and p1 = Cluster.proc cluster 1 in
  (* One concrete stub-set envelope from P1, replayed verbatim — what
     a duplicating network manufactures. *)
  let msg =
    Msg.make ~seq:900 ~src:p1.Process.id ~dst:p0.Process.id ~sent_at:0
      (Scaffold.new_set_stubs ~seqno:0 targets)
  in
  Network.send (Cluster.net cluster) msg;
  settle cluster;
  let before = scion_state p0 in
  Network.send (Cluster.net cluster) msg;
  settle cluster;
  check Alcotest.int "replay suppressed" 1 (Stats.get stats "net.msg.duplicate_ignored");
  check Alcotest.int "handler never re-ran" 0 (Stats.get stats "reflist.sets_stale");
  check Alcotest.bool "scion table unchanged" true (scion_state p0 = before);
  (* The same set inside a fresh envelope is not a network replay; the
     per-(sender, destination) stub-set seqno makes it just as inert. *)
  let msg' =
    Msg.make ~seq:901 ~src:p1.Process.id ~dst:p0.Process.id ~sent_at:0
      (Scaffold.new_set_stubs ~seqno:0 targets)
  in
  Network.send (Cluster.net cluster) msg';
  settle cluster;
  check Alcotest.int "stale at the application layer" 1 (Stats.get stats "reflist.sets_stale");
  check Alcotest.bool "scion table still unchanged" true (scion_state p0 = before)

let test_duplicate_batch_idempotent () =
  (* Deduplication is per envelope: the constituents of a batch share
     their envelope's sequence number and must all be processed on
     first delivery — and none on a replay. *)
  let cluster, targets = mk_wired () in
  let stats = Cluster.stats cluster in
  let p0 = Cluster.proc cluster 0 and p1 = Cluster.proc cluster 1 in
  let set seqno = Scaffold.new_set_stubs ~seqno targets in
  let msg =
    Msg.make ~seq:77 ~src:p1.Process.id ~dst:p0.Process.id ~sent_at:0 (Msg.Batch [ set 0; set 1 ])
  in
  Network.send (Cluster.net cluster) msg;
  settle cluster;
  check Alcotest.int "both constituents processed" 1
    (Scion_table.last_seqno p0.Process.scions p1.Process.id);
  check Alcotest.int "constituents not each other's replays" 0
    (Stats.get stats "net.msg.duplicate_ignored");
  let before = scion_state p0 in
  Network.send (Cluster.net cluster) msg;
  settle cluster;
  check Alcotest.int "envelope replay suppressed" 1 (Stats.get stats "net.msg.duplicate_ignored");
  check Alcotest.int "nothing reprocessed" 0 (Stats.get stats "reflist.sets_stale");
  check Alcotest.bool "scion table unchanged" true (scion_state p0 = before)

let test_duplicated_traffic_converges () =
  (* End-to-end: with the network duplicating a third of all traffic,
     the acyclic protocol neither leaks nor over-reclaims. *)
  let faults =
    { Faults.none with Faults.default_link = { Faults.default_link with duplicate_prob = 0.35 } }
  in
  let net_config = Network.default_config () in
  let cluster = Cluster.create ~seed:5 ~net_config ~faults ~n:3 () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  let c = Mutator.alloc cluster ~proc:2 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:c;
  Mutator.add_root cluster a;
  gc_rounds cluster 3;
  check Alcotest.int "all alive under duplication" 3 (Cluster.total_objects cluster);
  Mutator.remove_root cluster a;
  gc_rounds cluster 5;
  check Alcotest.int "all reclaimed under duplication" 0 (Cluster.total_objects cluster);
  check Alcotest.bool "duplicates were suppressed" true
    (Stats.get (Cluster.stats cluster) "net.msg.duplicate_ignored" > 0)

let suite =
  ( "rt-gc",
    [
      Alcotest.test_case "lgc: collects unrooted" `Quick test_lgc_collects_unrooted;
      Alcotest.test_case "lgc: scion protects" `Quick test_lgc_scion_protects;
      Alcotest.test_case "lgc: local cycle collected" `Quick test_lgc_local_cycle_collected;
      Alcotest.test_case "lgc: drops dead stubs" `Quick test_lgc_drops_dead_stubs;
      Alcotest.test_case "lgc: pre-sweep hook" `Quick test_lgc_pre_sweep_hook;
      Alcotest.test_case "acyclic: chain reclaimed" `Quick test_acyclic_chain_reclaimed;
      Alcotest.test_case "acyclic: distributed cycle leaks" `Quick
        test_acyclic_distributed_cycle_not_reclaimed;
      Alcotest.test_case "export: third-party creates scion" `Quick
        test_export_third_party_creates_scion;
      Alcotest.test_case "export: pin released after ack" `Quick test_export_pin_released_after_ack;
      Alcotest.test_case "export: safe when exporter drops ref" `Quick
        test_export_safe_when_exporter_drops_ref;
      Alcotest.test_case "export: retries under 60% loss" `Quick test_export_notice_retry_under_loss;
      Alcotest.test_case "export: healing after lost notice" `Quick test_healing_after_lost_notice;
      Alcotest.test_case "reflist: probe recovers lost final set" `Quick
        test_probe_recovers_lost_final_set;
      Alcotest.test_case "export: owner-side is synchronous" `Quick test_owner_side_export;
      Alcotest.test_case "rmi: bumps invocation counters" `Quick test_rmi_bumps_ics;
      Alcotest.test_case "rmi: reply continuation" `Quick test_rmi_reply_runs_continuation;
      Alcotest.test_case "rmi: behavior mutates callee" `Quick test_rmi_behavior_mutates_callee;
      Alcotest.test_case "rmi: results create stubs/scions" `Quick test_rmi_results_create_stubs;
      Alcotest.test_case "rmi: dangling target" `Quick test_rmi_to_collected_object;
      Alcotest.test_case "rmi: requires stub" `Quick test_rmi_requires_stub;
      Alcotest.test_case "rmi: rejects local target" `Quick test_rmi_rejects_local_target;
      Alcotest.test_case "rmi: pin timeout releases" `Quick test_rmi_pin_timeout_releases;
      Alcotest.test_case "rmi: replies keep counters in step" `Quick
        test_rmi_replies_keep_counters_in_step;
      Alcotest.test_case "rmi: nested calls" `Quick test_rmi_nested_calls;
      Alcotest.test_case "rmi: call_sync" `Quick test_call_sync;
      Alcotest.test_case "pstore: LRU basics" `Quick test_pstore_basics;
      Alcotest.test_case "pstore: forget" `Quick test_pstore_forget;
      Alcotest.test_case "pstore: collect forgets swept objects" `Quick
        test_pstore_collect_forgets_swept;
      Alcotest.test_case "pstore: LGC thrashing" `Quick test_pstore_lgc_thrashing;
      Alcotest.test_case "replicate: copies references" `Quick test_replicate_copies_references;
      Alcotest.test_case "replicate: keeps targets alive" `Quick test_replica_keeps_targets_alive;
      Alcotest.test_case "replicate: under loss" `Quick test_replicate_under_loss;
      Alcotest.test_case "batching: coalesces a window" `Quick test_batching_coalesces;
      Alcotest.test_case "batching: single payload travels plain" `Quick
        test_batching_single_payload_travels_plain;
      Alcotest.test_case "batching: dgc_window = 0 sends synchronously" `Quick
        test_window_zero_is_synchronous;
      Alcotest.test_case "batching: one queue per destination, true sender kept" `Quick
        test_batching_queues_per_destination;
      Alcotest.test_case "batching: a dead sender's queue sends nothing" `Quick
        test_batching_dead_sender_sends_nothing;
      Alcotest.test_case "batching: the window closes dgc_window after it opens" `Quick
        test_batching_window_closes_on_time;
      Alcotest.test_case "batching: every sender's queue drains" `Quick
        test_batching_every_queue_drains;
      Alcotest.test_case "batching: acyclic chain still reclaimed" `Quick
        test_batching_chain_reclaimed;
      Alcotest.test_case "batching: clique round sends fewer msgs" `Quick
        test_batching_cuts_clique_traffic;
      Alcotest.test_case "batching: cycle detection converges" `Quick
        test_batching_detection_converges;
      Alcotest.test_case "duplicate: new-set replay is idempotent" `Quick
        test_duplicate_new_set_idempotent;
      Alcotest.test_case "duplicate: batch replay is idempotent" `Quick
        test_duplicate_batch_idempotent;
      Alcotest.test_case "duplicate: acyclic protocol converges" `Quick
        test_duplicated_traffic_converges;
    ] )
