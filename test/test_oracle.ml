(* Oracle windowed-check boundaries: the sweep fires exactly on the
   window edge (not a tick earlier), teardown mid-window still runs
   the final sweep exactly once, and liveness checks converge on the
   final permitted tick (the emptiness test precedes the bound). *)

open Adgc_algebra
open Adgc_rt
module Oracle = Adgc_check.Oracle
module Invariant = Adgc_check.Invariant

let check = Alcotest.check

(* Forge a scion whose target was never allocated: a persistent
   [Scion_dangles] the instantaneous sweep reports every window. *)
let forge_dangling_scion cluster =
  let p0 = Cluster.proc cluster 0 in
  let ghost = Oid.make ~owner:(Proc_id.of_int 0) ~serial:777 in
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:ghost in
  ignore (Scion_table.ensure p0.Process.scions ~now:(Cluster.now cluster) key : Scion_table.entry)

let test_violation_at_window_edge () =
  let cluster = Cluster.create ~n:2 () in
  let oracle = Oracle.install ~window:100 cluster in
  forge_dangling_scion cluster;
  (* One tick short of the window: the violation exists but the sweep
     has not run. *)
  Cluster.run_for cluster 99;
  check Alcotest.bool "silent one tick before the edge" true (Oracle.events oracle = []);
  Cluster.run_for cluster 1;
  (match Oracle.events oracle with
  | [ e ] ->
      check Alcotest.int "recorded exactly on the edge" 100 e.Oracle.time;
      check Alcotest.string "kind" "scion_dangles" (Invariant.kind e.Oracle.violation)
  | es -> Alcotest.failf "expected one event at the edge, got %d" (List.length es));
  (* A persistent violation is re-reported once per window, no more. *)
  Cluster.run_for cluster 100;
  check Alcotest.int "re-reported on the next edge" 2 (List.length (Oracle.events oracle));
  check Alcotest.bool "first report captured" true (Oracle.first_report oracle <> None);
  Cluster.teardown cluster

(* The event trace is off until a reader enables it; the oracle is one,
   and its report still carries the trace's tail. *)
let test_report_has_trace_tail () =
  let cluster = Cluster.create ~n:2 () in
  let oracle = Oracle.install ~window:100 cluster in
  Cluster.crash cluster 1;
  forge_dangling_scion cluster;
  Cluster.run_for cluster 100;
  let report = Option.value (Oracle.first_report oracle) ~default:"" in
  let index_of needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length report then Alcotest.failf "%S not in the report" needle
      else if String.sub report i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let tail = index_of "-- trace tail --" in
  let crash = index_of "crashed" in
  check Alcotest.bool "the tail holds the crash event" true
    (tail < crash && crash < index_of "-- detection lineage --");
  Cluster.teardown cluster

let test_teardown_mid_window () =
  let cluster = Cluster.create ~n:2 () in
  let oracle = Oracle.install ~window:1_000 cluster in
  forge_dangling_scion cluster;
  (* Tear down mid-window: the recurring sweep never fired, so only
     [stop]'s final sweep can catch the violation. *)
  Cluster.run_for cluster 300;
  check Alcotest.bool "sweep has not fired yet" true (Oracle.events oracle = []);
  Cluster.teardown cluster;
  (match Oracle.events oracle with
  | [ e ] -> check Alcotest.int "final sweep at teardown time" 300 e.Oracle.time
  | es -> Alcotest.failf "expected the one final-sweep event, got %d" (List.length es));
  (* Idempotent: neither an explicit [stop] nor more scheduler time
     runs a second final sweep. *)
  Oracle.stop oracle;
  Cluster.run_for cluster 5_000;
  check Alcotest.int "final sweep ran exactly once" 1 (List.length (Oracle.events oracle))

(* Liveness from quiescence.  [run] is under test control: the lone
   garbage object disappears during the second step, so convergence
   lands exactly on [max_ticks]. *)
let quiescent_garbage () =
  let cluster = Cluster.create ~n:1 () in
  let p0 = Cluster.proc cluster 0 in
  let obj = Heap.alloc p0.Process.heap in
  check Alcotest.bool "unrooted object is ground-truth garbage" true
    (Oid.Set.mem obj.Heap.oid (Cluster.garbage cluster));
  let calls = ref 0 in
  let run _step =
    incr calls;
    if !calls = 2 then Heap.remove p0.Process.heap obj.Heap.oid
  in
  (cluster, run)

let test_liveness_converges_on_final_tick () =
  let cluster, run = quiescent_garbage () in
  (* Reclamation completes at spent = 200 = max_ticks; the residual
     emptiness check precedes the bound check, so this is Converged,
     not Stuck. *)
  (match Scaffold.check_liveness ~step:100 ~max_ticks:200 cluster ~run with
  | Scaffold.Converged { ticks; reclaimed } ->
      check Alcotest.int "converged exactly at the bound" 200 ticks;
      check Alcotest.int "everything captured was reclaimed" 1 reclaimed
  | Scaffold.Stuck _ as l -> Alcotest.failf "final-tick convergence misread as %a" Scaffold.pp_liveness l);
  Cluster.teardown cluster

let test_liveness_stuck_one_step_short () =
  let cluster, run = quiescent_garbage () in
  (* Same run schedule, bound one step smaller: the second step never
     executes and the object survives. *)
  (match Scaffold.check_liveness ~step:100 ~max_ticks:100 cluster ~run with
  | Scaffold.Stuck { remaining; after } ->
      check Alcotest.int "gave up at the bound" 100 after;
      check Alcotest.int "the object remains" 1 (Oid.Set.cardinal remaining)
  | Scaffold.Converged _ -> Alcotest.fail "converged without the reclaiming step");
  Cluster.teardown cluster

(* One checker across drivers (a): the socket driver's gathered-state
   oracle reports exactly the in-memory structural violations.  Each
   structural fault is injected by hand — a freed object a live object
   holds, a freed scion target, a scion counter synced past its stub —
   and a crashed rank's wreckage, which neither may judge. *)
let test_gathered_matches_in_memory () =
  let cluster = Cluster.create ~n:4 () in
  let rt = Cluster.rt cluster in
  let a = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster a;
  let b = Mutator.alloc cluster ~proc:0 () in
  Mutator.link cluster ~from_:a ~to_:b;
  let c = Mutator.alloc cluster ~proc:1 () in
  Mutator.wire_remote cluster ~holder:a ~target:c;
  let d = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster d;
  let e = Mutator.alloc cluster ~proc:1 () in
  Mutator.wire_remote cluster ~holder:d ~target:e;
  let wreck = Mutator.alloc cluster ~proc:3 () in
  Mutator.wire_remote cluster ~holder:d ~target:wreck;
  Cluster.crash cluster 3;
  let p1 = Cluster.proc cluster 1 in
  Heap.remove (Cluster.proc cluster 0).Process.heap b.Heap.oid;
  Heap.remove p1.Process.heap c.Heap.oid;
  let key = Ref_key.make ~src:(Proc_id.of_int 2) ~target:e.Heap.oid in
  (match Scaffold.find_scion p1.Process.scions key with
  | Some scion ->
      let stub = Option.get (Stub_table.find (Cluster.proc cluster 2).Process.stubs e.Heap.oid) in
      Scion_table.sync_ic scion (stub.Stub_table.ic + 3)
  | None -> Alcotest.fail "no scion for d -> e");
  let in_memory = Invariant.check cluster in
  let states =
    List.init 3 (fun rank -> Adgc_net.Gather.capture ~rt ~rank ~tick:0 ~reclaimed:[])
  in
  let gathered =
    Adgc_net.Gather.check ~expected_live:Oid.Set.empty ~expected_garbage:Oid.Set.empty ~dead:[ 3 ]
      states
  in
  check
    Alcotest.(list string)
    "every fault, in report order"
    [ "dangling_ref"; "dangling_ref"; "scion_dangles"; "ic_regression" ]
    (List.map Invariant.kind in_memory);
  check
    (Alcotest.list (Alcotest.testable Invariant.pp ( = )))
    "the gathered oracle reports the same violations" in_memory
    gathered.Adgc_net.Gather.violations;
  Cluster.teardown cluster

(* One checker across drivers (b): the model checker and the
   simulator's oracle install the same pre-sweep check, so on the
   [lgc_ignores_scions] witness both record the same live object
   reclaimed. *)
let test_mc_and_oracle_agree () =
  let open Adgc_mc in
  let entry = List.find (fun e -> e.Mutants.mutant = "lgc_ignores_scions") Mutants.all in
  Fun.protect
    ~finally:(fun () -> Adgc_util.Mc_mutate.set None)
    (fun () ->
      let system =
        System.create ~mutant:entry.Mutants.mutant
          (Option.get (Scenarios.find entry.Mutants.scenario))
      in
      let oracle = Oracle.install (Adgc.Sim.cluster (System.sim system)) in
      let reported =
        List.concat_map
          (fun a -> match System.apply system a with Ok vs -> vs | Error e -> Alcotest.fail e)
          entry.Mutants.witness
      in
      let from_mc = List.filter (String.starts_with ~prefix:"live_reclaimed:") reported in
      let from_oracle =
        List.map
          (fun (proc, oid) ->
            let v = Invariant.Live_reclaimed { proc; oid } in
            Invariant.kind v ^ ": " ^ Invariant.describe v)
          (Scaffold.live_reclaimed oracle)
      in
      check Alcotest.bool "the mutant reclaims a live object" true (from_mc <> []);
      check Alcotest.(list string) "the same live objects reclaimed" from_oracle from_mc)

let suite =
  ( "oracle",
    [
      Alcotest.test_case "sweep fires exactly on the window edge" `Quick
        test_violation_at_window_edge;
      Alcotest.test_case "teardown mid-window runs one final sweep" `Quick
        test_teardown_mid_window;
      Alcotest.test_case "liveness converges on the final tick" `Quick
        test_liveness_converges_on_final_tick;
      Alcotest.test_case "liveness stuck one step short" `Quick test_liveness_stuck_one_step_short;
      Alcotest.test_case "report carries the trace tail" `Quick test_report_has_trace_tail;
      Alcotest.test_case "gathered and in-memory structural checks agree" `Quick
        test_gathered_matches_in_memory;
      Alcotest.test_case "model checker and oracle catch the same sweep" `Quick
        test_mc_and_oracle_agree;
    ] )
