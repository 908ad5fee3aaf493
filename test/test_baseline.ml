(* Tests for the distributed back-tracing baseline. *)

open Adgc_algebra
open Adgc_rt
module Backtrack = Adgc_baseline.Backtrack
module Btmsg = Adgc_baseline.Btmsg
module Hmsg = Adgc_baseline.Hmsg
module Net_codec = Adgc_serial.Net_codec
module Summarize = Adgc_snapshot.Summarize
module Topology = Adgc_workload.Topology
module Stats = Adgc_util.Stats

let check = Alcotest.check

type harness = { cluster : Cluster.t; bts : Backtrack.t array }

let mk ?(n = 6) () =
  let cluster = Cluster.create ~n () in
  let rt = Cluster.rt cluster in
  let bts = Array.map (fun p -> Backtrack.attach rt p) rt.Runtime.procs in
  { cluster; bts }

let snapshot_all h =
  let now = Cluster.now h.cluster in
  Array.iteri
    (fun i bt -> Backtrack.set_summary bt (Summarize.run ~now (Cluster.proc h.cluster i)))
    h.bts

let settle h = ignore (Cluster.drain h.cluster : int)

let gc_rounds h k =
  let rt = Cluster.rt h.cluster in
  for _ = 1 to k do
    Array.iter (fun p -> ignore (Lgc.run rt p : Lgc.report)) rt.Runtime.procs;
    Array.iter (fun p -> Reflist.send_new_sets rt p) rt.Runtime.procs;
    settle h
  done

let test_bt_finds_garbage_ring () =
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2; 3 ] in
  snapshot_all h;
  let key = Topology.scion_key built ~src:3 "n0_0" in
  check Alcotest.bool "suspected" true (Backtrack.suspect h.bts.(0) key);
  settle h;
  (match Backtrack.verdicts h.bts.(0) with
  | [ (k, garbage) ] ->
      check Alcotest.bool "right subject" true (Ref_key.equal k key);
      check Alcotest.bool "garbage" true garbage
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l));
  gc_rounds h 8;
  check Alcotest.int "reclaimed through cascade" 0 (Cluster.total_objects h.cluster)

let test_bt_spares_live_ring () =
  let h = mk ~n:3 () in
  let built = Topology.rooted_ring h.cluster ~procs:[ 0; 1; 2 ] in
  snapshot_all h;
  (* Suspect the scion at P1 (target not locally reachable there). *)
  let key = Topology.scion_key built ~src:0 "n1_0" in
  check Alcotest.bool "suspected" true (Backtrack.suspect h.bts.(1) key);
  settle h;
  (match Backtrack.verdicts h.bts.(1) with
  | [ (_, garbage) ] -> check Alcotest.bool "rooted" false garbage
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l));
  gc_rounds h 4;
  check Alcotest.int "nothing collected" 3 (Cluster.total_objects h.cluster)

let test_bt_refuses_rooted_target () =
  let h = mk ~n:3 () in
  let built = Topology.rooted_ring h.cluster ~procs:[ 0; 1; 2 ] in
  snapshot_all h;
  (* The scion at P0 protects the rooted object: not a suspect. *)
  check Alcotest.bool "refused" false
    (Backtrack.suspect h.bts.(0) (Topology.scion_key built ~src:2 "n0_0"))

let test_bt_mutual_cycles () =
  let h = mk () in
  let built = Topology.fig4 h.cluster in
  snapshot_all h;
  let key = Topology.scion_key built ~src:0 "F" in
  check Alcotest.bool "suspected" true (Backtrack.suspect h.bts.(1) key);
  settle h;
  (match Backtrack.verdicts h.bts.(1) with
  | [ (_, garbage) ] -> check Alcotest.bool "garbage" true garbage
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l));
  gc_rounds h 10;
  check Alcotest.int "reclaimed" 0 (Cluster.total_objects h.cluster)

let test_bt_branch_to_root () =
  (* A garbage-looking cycle with one back-branch to a root elsewhere:
     back-tracing must answer Rooted. *)
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  (* w@P3 (rooted) also references n1_0. *)
  let w = Adgc_rt.Mutator.alloc h.cluster ~proc:3 () in
  Adgc_rt.Mutator.add_root h.cluster w;
  Adgc_rt.Mutator.wire_remote h.cluster ~holder:w ~target:(Topology.obj built "n1_0");
  snapshot_all h;
  let key = Topology.scion_key built ~src:2 "n0_0" in
  check Alcotest.bool "suspected" true (Backtrack.suspect h.bts.(0) key);
  settle h;
  match Backtrack.verdicts h.bts.(0) with
  | [ (_, garbage) ] -> check Alcotest.bool "rooted via branch" false garbage
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l)

let test_bt_uses_messages_and_state () =
  let h = mk ~n:4 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2; 3 ] in
  snapshot_all h;
  ignore (Backtrack.suspect h.bts.(0) (Topology.scion_key built ~src:3 "n0_0") : bool);
  settle h;
  let stats = Cluster.stats h.cluster in
  check Alcotest.bool "messages flowed" true (Stats.get stats "bt.msg" >= 8);
  check Alcotest.bool "peak state recorded" true (Stats.get stats "bt.state_peak" >= 1)

let test_bt_timeout_under_loss () =
  let h = mk ~n:3 () in
  let built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  (Network.config (Cluster.net h.cluster)).Network.drop_prob <- 1.0;
  snapshot_all h;
  ignore (Backtrack.suspect h.bts.(0) (Topology.scion_key built ~src:2 "n0_0") : bool);
  Cluster.run_for h.cluster 200_000;
  check Alcotest.int "no verdict" 0 (List.length (Backtrack.verdicts h.bts.(0)));
  check Alcotest.bool "timed out" true (Stats.get (Cluster.stats h.cluster) "bt.timeouts" >= 1);
  check Alcotest.int "state drained" 0 (Backtrack.state_size h.bts.(0))

let test_bt_scan () =
  let h = mk ~n:3 () in
  let _built = Topology.ring h.cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for h.cluster 1_000;
  snapshot_all h;
  let started = Backtrack.scan h.bts.(0) ~idle_threshold:100 in
  check Alcotest.bool "scan initiates" true (started >= 1);
  settle h;
  check Alcotest.bool "verdicts arrive" true (Backtrack.verdicts h.bts.(0) <> [])

(* Both comparators share [Msg.Ext]; each reader takes only its own
   bodies, and an instance drops (and counts) anything else. *)
let test_bodies_are_not_interchangeable () =
  let bt =
    Btmsg.Reply
      {
        trace = { Btmsg.initiator = Proc_id.of_int 0; seq = 1 };
        subject = Ref_key.make ~src:(Proc_id.of_int 1) ~target:(Oid.make ~owner:(Proc_id.of_int 0) ~serial:2);
        verdict = Btmsg.Rooted;
      }
  in
  let bt_body = Net_codec.encode_shape Btmsg.emit bt in
  let h_body = Net_codec.encode_shape Hmsg.emit (Hmsg.Threshold { value = 9 }) in
  let rejects read body =
    match Net_codec.Read.run read body with
    | _ -> false
    | exception Adgc_serial.Wire.Malformed _ -> true
  in
  check Alcotest.bool "back-tracing reader rejects a hughes body" true (rejects Btmsg.read h_body);
  check Alcotest.bool "hughes reader rejects a back-tracing body" true (rejects Hmsg.read bt_body);
  check Alcotest.bool "back-tracing reader reads its own" false (rejects Btmsg.read bt_body);
  let h = mk ~n:2 () in
  let rt = Cluster.rt h.cluster in
  Runtime.send rt ~src:(Proc_id.of_int 1) ~dst:(Proc_id.of_int 0) (Msg.Ext h_body);
  settle h;
  check Alcotest.int "foreign body dropped and counted" 1
    (Stats.get (Cluster.stats h.cluster) "bt.malformed");
  check Alcotest.int "no verdict from it" 0 (List.length (Backtrack.verdicts h.bts.(0)))

let suite =
  ( "baseline",
    [
      Alcotest.test_case "bt: garbage ring detected" `Quick test_bt_finds_garbage_ring;
      Alcotest.test_case "bt: live ring spared" `Quick test_bt_spares_live_ring;
      Alcotest.test_case "bt: rooted target refused" `Quick test_bt_refuses_rooted_target;
      Alcotest.test_case "bt: mutual cycles" `Quick test_bt_mutual_cycles;
      Alcotest.test_case "bt: back-branch to a root" `Quick test_bt_branch_to_root;
      Alcotest.test_case "bt: messages and state" `Quick test_bt_uses_messages_and_state;
      Alcotest.test_case "bt: timeout under loss" `Quick test_bt_timeout_under_loss;
      Alcotest.test_case "bt: scan" `Quick test_bt_scan;
      Alcotest.test_case "ext bodies are not interchangeable" `Quick
        test_bodies_are_not_interchangeable;
    ] )
