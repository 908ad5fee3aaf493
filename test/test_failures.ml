(* Crash-stop failures: the system must stay safe unconditionally, and
   with failure detection enabled it must also reclaim the state a
   crashed process pinned — including the documented unsafety when a
   partition is mistaken for a crash. *)

open Adgc_algebra
open Adgc_rt
open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config

let check = Alcotest.check

let mk ?(n = 4) ?(failure_detection = false) () =
  let config = Config.quick ~n_procs:n () in
  let runtime =
    {
      config.Config.runtime with
      Runtime.holder_silence_limit = (if failure_detection then Some 5_000 else None);
    }
  in
  let config = { config with Config.runtime = runtime } in
  let sim = Sim.create ~config () in
  (sim, Sim.cluster sim)

let test_dead_process_is_silent () =
  let sim, cluster = mk () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster a;
  Mutator.add_root cluster b;
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  let crashed_at = Cluster.now cluster in
  (* Sample the wire faster than the minimum latency: every message
     P0 originated after the crash would be caught in flight. *)
  let originated_dead = ref 0 in
  let audit =
    Scheduler.every (Cluster.sched cluster) ~phase:1 ~period:3 (fun () ->
        List.iter
          (fun (m : Msg.t) ->
            if Proc_id.equal m.Msg.src (Proc_id.of_int 0) && m.Msg.sent_at > crashed_at then
              incr originated_dead)
          (Network.in_flight (Cluster.net cluster)))
  in
  Sim.run_for sim 5_000;
  Scheduler.cancel audit;
  (* P1 keeps probing (owner side), but nothing originates at P0. *)
  let dead_drops = Adgc_util.Stats.get (Sim.stats sim) "net.msg.dead_endpoint" in
  check Alcotest.bool "messages to the dead are dropped" true (dead_drops > 0);
  check Alcotest.int "nothing originates at the dead process" 0 !originated_dead;
  (* Direct attempt: a send whose source is dead is swallowed before
     it reaches the wire. *)
  let sent = Adgc_util.Stats.get (Sim.stats sim) "net.msg.sent" in
  Runtime.send (Cluster.rt cluster) ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1)
    Msg.Scion_probe;
  check Alcotest.int "dead source never hits the wire" sent
    (Adgc_util.Stats.get (Sim.stats sim) "net.msg.sent");
  check Alcotest.bool "p0 reported dead" false (Cluster.proc cluster 0).Process.alive

let test_crash_without_detection_leaks () =
  let sim, cluster = mk () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  Sim.run_for sim 60_000;
  (* Without failure detection the scion (and object) leak — the
     conservative default. *)
  let p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "object leaks conservatively" true
    (Heap.mem p1.Process.heap target.Heap.oid)

let test_crash_with_detection_reclaims () =
  let sim, cluster = mk ~failure_detection:true () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  Sim.run_for sim 60_000;
  let p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "scion reaped, object reclaimed" false
    (Heap.mem p1.Process.heap target.Heap.oid);
  check Alcotest.bool "reap counted" true
    (Adgc_util.Stats.get (Sim.stats sim) "reflist.scions_reaped" >= 1)

let test_live_holder_never_reaped () =
  (* Failure detection on, healthy network: periodic stub sets keep
     every live holder fresh and nothing is reaped. *)
  let sim, cluster = mk ~failure_detection:true () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 60_000;
  check Alcotest.int "nothing reaped" 0
    (Adgc_util.Stats.get (Sim.stats sim) "reflist.scions_reaped");
  check Alcotest.bool "object alive" true
    (Heap.mem (Cluster.proc cluster 1).Process.heap target.Heap.oid)

let test_cycle_through_crashed_process () =
  (* A distributed cycle spanning a crashed process: the crash breaks
     the cycle; failure detection reclaims the remnants at the
     survivors. *)
  let sim, cluster = mk ~n:3 ~failure_detection:true () in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 1_000;
  Cluster.crash cluster 1;
  Sim.run_for sim 100_000;
  check Alcotest.int "survivor remnants reclaimed" 0 (Cluster.total_objects cluster)

let test_false_suspicion_is_unsafe () =
  (* The documented trade-off: partition a live holder for longer than
     the silence limit; its objects get reclaimed under it.  This test
     asserts the unsafety actually manifests — the reason
     failure_detection defaults to off. *)
  let sim, cluster = mk ~failure_detection:true () in
  let checker = Adgc_check.Oracle.install cluster in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 2_000;
  (* Partition both directions: P0 is alive but unreachable. *)
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 1) (Proc_id.of_int 0);
  Sim.run_for sim 60_000;
  check Alcotest.bool "live object was reclaimed (documented unsafety)" true
    (List.length (Scaffold.live_reclaimed checker) >= 1)

let test_detection_dies_at_crashed_process () =
  (* A CDM addressed to a dead process vanishes; the detection never
     concludes and everything stays safe. *)
  let sim, cluster = mk ~n:3 () in
  let built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.snapshot_all sim;
  Cluster.crash cluster 2;
  ignore
    (Adgc_dcda.Detector.initiate (Sim.detector sim 0)
       (Topology.scion_key built ~src:2 "n0_0")
      : bool);
  ignore (Cluster.drain cluster : int);
  check Alcotest.int "no conclusion" 0 (List.length (Sim.reports sim))

let test_crash_is_idempotent () =
  let _sim, cluster = mk () in
  Cluster.crash cluster 0;
  Cluster.crash cluster 0;
  check Alcotest.int "one crash counted" 1
    (Adgc_util.Stats.get (Cluster.stats cluster) "cluster.crashes")

let test_survivors_keep_collecting () =
  (* Normal distributed collection among survivors is unaffected by an
     unrelated crash. *)
  let sim, cluster = mk ~n:4 () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.add_root cluster a;
  Sim.start sim;
  Cluster.crash cluster 3;
  Sim.run_for sim 2_000;
  Mutator.remove_root cluster a;
  check Alcotest.bool "chain reclaimed despite crash elsewhere" true
    (Sim.run_until_clean ~max_time:100_000 sim)

(* Crash schedules: with failure detection on and only true crash-stop
   failures (no partitions), safety must hold under a random topology,
   churn and crash schedule.  An instance is (seed, victim, crash tick),
   drawn once from [QCheck2.Gen.(triple (int_range 0 1000) (int_range 0
   3) (int_range 1 20_000))] with [Random.State.make [| 2024 |]], and
   each list pins the verdict of its instances: a verdict that moves in
   either direction fails, so a fix changes a pin here instead of
   passing unseen. *)
type verdict = Clean | Stuck | Unsafe

let verdict_name = function
  | Clean -> "safe and clean"
  | Stuck -> "safe and stuck"
  | Unsafe -> "unsafe"

let crash_schedule_verdict (seed, victim, crash_time) =
  let config = Config.quick ~seed ~n_procs:4 () in
  let runtime =
    { config.Config.runtime with Runtime.holder_silence_limit = Some 5_000 }
  in
  let config = { config with Config.runtime = runtime } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let checker = Adgc_check.Oracle.install cluster in
  let rng = Adgc_util.Rng.create (seed + 1) in
  let _built =
    Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3 ~root_prob:0.2
  in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed + 2)) () in
  Churn.run churn ~steps:200 ~every:13;
  Adgc_rt.Scheduler.schedule_after (Cluster.sched cluster) ~delay:crash_time (fun () ->
      Cluster.crash cluster victim);
  Sim.start sim;
  Sim.run_for sim 40_000;
  let clean = Sim.run_until_clean ~step:5_000 ~max_time:2_000_000 sim in
  if Scaffold.live_reclaimed checker <> [] then Unsafe else if clean then Clean else Stuck

(* The generator's first 100 draws. *)
let crash_schedules_clean =
  [
    (557, 0, 12_171); (397, 2, 18_338); (679, 2, 12_120); (95, 1, 12_922); (708, 0, 5_972);
    (352, 3, 2_871); (839, 2, 7_177); (802, 1, 4_751); (723, 0, 3_774); (514, 0, 13_072);
    (643, 1, 3_762); (21, 3, 6_089); (934, 2, 231); (674, 1, 8_648); (608, 2, 8_242);
    (38, 1, 1_027); (538, 1, 5_990); (758, 0, 7_375); (675, 3, 12_121); (608, 1, 11_942);
    (542, 0, 17_716); (880, 2, 910); (892, 2, 7_161); (790, 0, 14_938); (616, 2, 6_215);
    (360, 2, 7_640); (325, 0, 3_515); (71, 1, 12_260); (263, 3, 1_702); (938, 1, 19_028);
    (495, 2, 11_485); (420, 0, 17_062); (339, 0, 10_230); (907, 1, 18_748); (978, 2, 18_170);
    (196, 3, 15_560); (745, 2, 10_816); (974, 1, 19_671); (224, 3, 6_566); (6, 0, 8_747);
    (878, 2, 8_035); (246, 3, 3_846); (827, 1, 17_217); (319, 1, 8_636); (175, 0, 4_515);
    (937, 0, 19_407); (955, 0, 3_506); (409, 0, 7_675); (729, 3, 8_037); (427, 1, 13_860);
    (471, 1, 5_739); (619, 3, 3_977); (719, 3, 5_746); (605, 2, 15_568); (699, 2, 19_499);
    (538, 0, 5_215); (887, 1, 18_301); (669, 3, 18_343); (193, 3, 3_908); (664, 3, 15_279);
    (259, 0, 9_696); (732, 1, 8_383); (433, 2, 19_405); (676, 3, 15_779); (559, 2, 36);
    (950, 1, 7_990); (939, 3, 18_550); (381, 2, 12_798); (655, 0, 526); (582, 2, 18_222);
    (508, 2, 6_793); (735, 0, 5_432); (57, 0, 5_744); (698, 0, 10_453); (293, 0, 2_863);
    (906, 1, 4_496); (240, 0, 4_786); (13, 2, 4_126); (57, 2, 7_024); (669, 2, 14_194);
    (822, 3, 8_615); (216, 3, 7_486); (42, 2, 4_681); (266, 2, 1_650); (622, 3, 15_684);
    (104, 2, 18_987); (211, 0, 11_343); (397, 1, 15_461); (938, 0, 11_565); (395, 2, 4_914);
    (296, 0, 10_067); (525, 0, 10_010); (127, 0, 10_544); (972, 2, 18_730); (870, 3, 6_791);
    (439, 0, 13_451); (187, 0, 12_843); (811, 0, 18_287); (961, 3, 2_793); (852, 3, 10_756);
  ]

(* Three earlier fresh draws that never converge: a completeness gap,
   not a safety one.  A completeness fix has to flip these pins. *)
let crash_schedules_stuck = [ (884, 2, 11_868); (768, 2, 9_352); (768, 2, 15_262) ]

let test_crash_schedules verdict instances () =
  let moved =
    List.filter_map
      (fun ((seed, victim, crash_time) as instance) ->
        let got = crash_schedule_verdict instance in
        if got = verdict then None
        else Some (Printf.sprintf "%d/%d/%d: %s" seed victim crash_time (verdict_name got)))
      instances
  in
  check Alcotest.(list string) ("every instance " ^ verdict_name verdict) [] moved

(* --------------------------------------------------------------- *)
(* Duplicate suppression: per-link seqs, a floor and the gaps above
   it, and the gaps given up at restart quiescence.                 *)

let test_prune_delivered_semantics () =
  (* Each destination's seqs start at 0: [Runtime.send] stamps them
     from a per-destination counter. *)
  let net_config = Network.default_config () in
  net_config.Network.delivery <- Network.Manual;
  let cluster = Cluster.create ~net_config ~n:3 () in
  let pid = Proc_id.of_int in
  let send dst = Runtime.send (Cluster.rt cluster) ~src:(pid 0) ~dst:(pid dst) Msg.Scion_probe in
  send 1;
  send 2;
  send 1;
  send 1;
  send 2;
  let seqs dst =
    List.filter_map
      (fun (m : Msg.t) -> if Proc_id.to_int m.Msg.dst = dst then Some m.Msg.seq else None)
      (Network.in_flight (Cluster.net cluster))
  in
  check Alcotest.(list int) "seqs to P1" [ 0; 1; 2 ] (seqs 1);
  check Alcotest.(list int) "seqs to P2" [ 0; 1 ] (seqs 2);
  let p = Process.create ~id:(pid 0) ~rng:(Adgc_util.Rng.create 7) in
  let deliver src seq = Process.note_delivery p ~src:(pid src) ~seq in
  let accepted what src seq = check Alcotest.bool what true (deliver src seq) in
  let refused what src seq = check Alcotest.bool what false (deliver src seq) in
  (* In order: nothing is held. *)
  for seq = 0 to 199 do
    accepted "in-order delivery accepted" 1 seq
  done;
  check Alcotest.int "in-order link holds no entry" 0 (Process.delivered_count p);
  refused "replay below the floor refused" 1 10;
  refused "replay of the last delivery refused" 1 199;
  accepted "next seq accepted" 1 200;
  (* A gap holds exactly the deliveries above it... *)
  for seq = 0 to 9 do
    if seq <> 5 then accepted "delivery around the gap accepted" 2 seq
  done;
  check Alcotest.int "the gap holds the entries above it" 4 (Process.delivered_count p);
  refused "replay above the floor refused" 2 7;
  refused "replay below the floor refused" 2 3;
  check Alcotest.int "refusals hold nothing more" 4 (Process.delivered_count p);
  (* ... which collapse into the floor when it fills. *)
  accepted "the gap fills" 2 5;
  check Alcotest.int "filled gap holds nothing" 0 (Process.delivered_count p);
  refused "replay of the collapsed entries refused" 2 8;
  accepted "next seq after the collapse accepted" 2 10;
  (* Unsequenced envelopes are never deduplicated. *)
  accepted "unsequenced accepted" 2 (-1);
  accepted "unsequenced accepted again" 2 (-1);
  (* Restart prune works per link: on link 3 a gap at seq 1 sits
     under 198 deliveries, on link 4 a gap at seq 1 under 49. *)
  accepted "link 3 seq 0" 3 0;
  for seq = 2 to 199 do
    accepted "link 3 above the gap" 3 seq
  done;
  accepted "link 4 seq 0" 4 0;
  for seq = 2 to 50 do
    accepted "link 4 above the gap" 4 seq
  done;
  check Alcotest.int "both gaps hold their entries" (198 + 49) (Process.delivered_count p);
  (* Link 3: the floor moves to 199 - 64 = 135, giving up seq 1 and
     dropping 2..134; 135..199 then collapse into it.  Link 4's
     highest delivery is within the slack of its floor: untouched. *)
  check Alcotest.int "entries below the new floor removed" 133 (Process.prune_delivered p);
  check Alcotest.int "only link 4's gap remains" 49 (Process.delivered_count p);
  refused "given-up gap refused" 3 1;
  refused "replay below the moved floor refused" 3 150;
  accepted "link 3 next seq accepted" 3 200;
  accepted "link 4's gap still open" 4 1;
  check Alcotest.int "link 4's gap collapsed" 0 (Process.delivered_count p);
  check Alcotest.int "pruning again removes nothing" 0 (Process.prune_delivered p)

let test_restart_bounds_delivered_table () =
  let sim, cluster = mk () in
  (* Steady cross-process traffic: remote references in both directions
     keep the reference-listing rounds (and their sequence numbers)
     flowing for the whole run. *)
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  let c = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster a;
  Mutator.add_root cluster b;
  Mutator.add_root cluster c;
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:a;
  Mutator.wire_remote cluster ~holder:c ~target:a;
  Sim.start sim;
  let p0 = Cluster.proc cluster 0 in
  let stat = Adgc_util.Stats.get (Sim.stats sim) in
  let probe () =
    Runtime.send (Cluster.rt cluster) ~src:(Proc_id.of_int 1) ~dst:p0.Process.id Msg.Scion_probe
  in
  (* A real gap on the link P1 -> P0: an envelope that arrives while
     P0 is down is never delivered. *)
  Sim.run_for sim 20_000;
  let dead_before = stat "net.msg.dead_endpoint" in
  probe ();
  Cluster.crash cluster 0;
  Sim.run_for sim 100;
  check Alcotest.bool "the envelope died at the crashed receiver" true
    (stat "net.msg.dead_endpoint" > dead_before);
  Cluster.restart cluster 0;
  (* Every later delivery on that link sits above the gap. *)
  for _ = 1 to 70 do
    probe ()
  done;
  Sim.run_for sim 200;
  check Alcotest.bool "the gap holds the deliveries above it" true
    (Process.delivered_count p0 >= 70);
  (* Each restart is a quiescence point that must cap every link at
     the slack window. *)
  let bound = 3 * 65 in
  for _round = 1 to 5 do
    Sim.run_for sim 20_000;
    Cluster.crash cluster 0;
    Cluster.restart cluster 0;
    check Alcotest.bool "delivered table bounded after restart" true
      (Process.delivered_count p0 <= bound)
  done;
  check Alcotest.bool "truncation actually fired" true (stat "cluster.delivered_pruned" > 0);
  let link = Hashtbl.find p0.Process.inbound 1 in
  check Alcotest.bool "the given-up gap left nothing on its link" true
    (Process.Seqs.is_empty link.Process.above);
  (* The run stays healthy after repeated truncation: the listing
     exchange keeps flowing and nothing was reclaimed unsafely. *)
  Sim.run_for sim 2_000;
  check Alcotest.bool "reference listing still flowing" true (stat "reflist.sets_sent" > 0);
  List.iter
    (fun (o : Heap.obj) ->
      let owner = Proc_id.to_int (Oid.owner o.Heap.oid) in
      check Alcotest.bool "rooted object survives" true
        (Heap.mem (Cluster.proc cluster owner).Process.heap o.Heap.oid))
    [ a; b; c ]

let suite =
  ( "failures",
    [
      Alcotest.test_case "dead process is silent" `Quick test_dead_process_is_silent;
      Alcotest.test_case "crash without detection leaks (conservative)" `Quick
        test_crash_without_detection_leaks;
      Alcotest.test_case "crash with detection reclaims" `Quick test_crash_with_detection_reclaims;
      Alcotest.test_case "live holder never reaped" `Quick test_live_holder_never_reaped;
      Alcotest.test_case "cycle through crashed process" `Quick test_cycle_through_crashed_process;
      Alcotest.test_case "false suspicion is unsafe (documented)" `Quick
        test_false_suspicion_is_unsafe;
      Alcotest.test_case "detection dies at crashed process" `Quick
        test_detection_dies_at_crashed_process;
      Alcotest.test_case "crash is idempotent" `Quick test_crash_is_idempotent;
      Alcotest.test_case "survivors keep collecting" `Quick test_survivors_keep_collecting;
      Alcotest.test_case "prune_delivered semantics" `Quick test_prune_delivered_semantics;
      Alcotest.test_case "restart bounds the delivered table" `Quick
        test_restart_bounds_delivered_table;
      Alcotest.test_case "crash schedules: 100 fixed draws stay safe and converge" `Quick
        (test_crash_schedules Clean crash_schedules_clean);
      Alcotest.test_case "crash schedules: three known draws stay safe and stuck" `Quick
        (test_crash_schedules Stuck crash_schedules_stuck);
    ] )
