(* The model checker checking itself: exhaustive unmutated scopes are
   clean and complete, every gauntlet mutant is caught with a
   deterministic minimized counterexample, and the scripted
   paper-conformance trails produce their exact verdicts. *)

open Adgc_mc

let check = Alcotest.check

let scenario name = Option.get (Scenarios.find name)

(* Scripted trails with exact verdicts.  [deliver] names the first
   parked envelope of a kind on a link. *)
let deliver kind src dst = Action.Deliver { kind; src; dst; nth = 0 }

(* [two_proc_cycle]: unlink, snapshot both, scan P0, deliver the CDM
   chain and the deletion broadcast, collect both — the cycle is
   reclaimed (goal reached). *)
let reclaim_trail =
  [
    Action.Mutate 0;
    Action.Snapshot 0;
    Action.Snapshot 1;
    Action.Scan 0;
    deliver "cdm" 0 1;
    deliver "cdm" 1 0;
    deliver "cdm_delete" 0 1;
    Action.Lgc 0;
    Action.Lgc 1;
  ]

(* [ic_race]: run the invocation to completion (request and reply
   delivered), then detect and reclaim — the exact verdict is
   reclamation, since a settled invocation leaves the counters
   consistent. *)
let ic_race_reclaim_trail =
  [
    Action.Mutate 0;
    (* invoke F: request parked P0->P1 *)
    deliver "rmi_request" 0 1;
    (* scion-side counter adopts the bump; reply parked P1->P0 *)
    deliver "rmi_reply" 1 0;
    Action.Mutate 1;
    (* unlink the root: the cycle is now garbage with settled counters *)
    Action.Snapshot 0;
    Action.Snapshot 1;
    Action.Scan 1;
    deliver "cdm" 1 0;
    deliver "cdm" 0 1;
    deliver "cdm_delete" 1 0;
    Action.Lgc 0;
    Action.Lgc 1;
  ]

(* [ic_race]: detect while the invocation request is still in flight —
   the exact verdict is no reclamation: the CDM aborts on the counter
   mismatch at delivery (safety rule 3) and both cycle members survive
   their local collections. *)
let ic_race_abort_trail =
  [
    Action.Mutate 0;
    (* invoke F, but never deliver the request: the stub-side counter
       is ahead of every scion-side snapshot *)
    Action.Mutate 1;
    Action.Snapshot 0;
    Action.Snapshot 1;
    Action.Scan 0;
    (* the CDM carries the bumped stub counter; delivery at P1 compares
       it with the stale scion counter and must abort (safety rule 3) *)
    deliver "cdm" 0 1;
    Action.Lgc 0;
    Action.Lgc 1;
  ]

(* ------------------------------------------------------------------ *)
(* Exhaustive unmutated scopes: every interleaving within the caps is
   violation-free.  This is the acceptance bar for the harness — a
   violation here is a real protocol bug (or a phantom in the ground
   truth, which is worse).  Each scope also pins its explored state
   count at the caps it runs with, so a summarizer or transition change
   that alters the explored space fails here rather than going
   unnoticed. *)

let assert_clean ?caps ~states (s : Scenario.t) =
  let o = Explore.explore ?caps s in
  check Alcotest.bool (s.Scenario.name ^ " explored to completion") true o.Explore.complete;
  check Alcotest.int (s.Scenario.name ^ " explored states") states o.Explore.states;
  match o.Explore.violation with
  | None -> ()
  | Some (trail, viols) ->
      Alcotest.failf "%s violated: %s after %s" s.Scenario.name (String.concat "; " viols)
        (String.concat ", "
           (List.map (fun a -> Format.asprintf "%a" Action.pp a) trail))

let test_exhaustive_two_proc_cycle () = assert_clean ~states:663 (scenario "two_proc_cycle")

let test_exhaustive_ic_race () = assert_clean ~states:2208 (scenario "ic_race")

let test_exhaustive_external_holder () = assert_clean ~states:2528 (scenario "external_holder")

let test_exhaustive_export_handshake () =
  (* One listing round exhaustively; the two-round scope (needed by the
     ack_before_delivery witness) is covered by the gauntlet replay and
     the full CI sweep. *)
  assert_clean ~states:3172
    ~caps:{ Scenario.snapshots = 0; scans = 0; lgcs = 1; sends = 1; drops = 0 }
    (scenario "export_handshake")

(* ------------------------------------------------------------------ *)
(* Conformance trails: exact verdicts for the paper's worked cases. *)

let run_exn ?mutant ?caps scenario trail =
  match Explore.run ?mutant ?caps scenario trail with
  | Ok (sys, viols) -> (sys, viols)
  | Error reason -> Alcotest.failf "trail inapplicable: %s" reason

let test_reclaim_verdict () =
  let sys, viols = run_exn (scenario "two_proc_cycle") reclaim_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "cycle reclaimed" true (System.goal_reached sys)

let test_lost_cdm_verdict () =
  let sys, viols =
    run_exn ~caps:Scenarios.lost_cdm_caps (scenario "two_proc_cycle") Scenarios.lost_cdm_trail
  in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "reclaimed despite the lost CDM" true (System.goal_reached sys)

let test_stale_witness_unmutated_verdict () =
  let sys, viols =
    run_exn ~caps:Scenarios.stale_witness_caps (scenario "two_proc_cycle")
      Scenarios.stale_witness_trail
  in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "later snapshot supersedes the stale one" true (System.goal_reached sys)

let test_ic_race_settled_reclaims () =
  let sys, viols = run_exn (scenario "ic_race") ic_race_reclaim_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "settled counters allow the reclaim" true (System.goal_reached sys)

let test_ic_race_in_flight_aborts () =
  let sys, viols = run_exn (scenario "ic_race") ic_race_abort_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  (* Safety rule 3: the CDM carrying the bumped stub counter aborts at
     delivery, so the (live) cycle survives both local collections. *)
  check Alcotest.bool "no reclamation" false (System.goal_reached sys)

(* ------------------------------------------------------------------ *)
(* Determinism: a trail is a pure function of the initial scenario. *)

let test_replay_deterministic () =
  let fp trail =
    let sys, _ = run_exn (scenario "two_proc_cycle") trail in
    System.fingerprint sys
  in
  check Alcotest.string "same trail, same state" (fp reclaim_trail)
    (fp reclaim_trail)

let test_ic_race_replay_deterministic () =
  let fp trail =
    let sys, _ = run_exn (scenario "ic_race") trail in
    System.fingerprint sys
  in
  check Alcotest.string "settled trail, same state" (fp ic_race_reclaim_trail)
    (fp ic_race_reclaim_trail);
  check Alcotest.string "in-flight trail, same state" (fp ic_race_abort_trail)
    (fp ic_race_abort_trail);
  check Alcotest.bool "the two races end in different states" true
    (fp ic_race_reclaim_trail <> fp ic_race_abort_trail)

let test_fingerprint_sensitive () =
  let fp trail =
    let sys, _ = run_exn (scenario "two_proc_cycle") trail in
    System.fingerprint sys
  in
  check Alcotest.bool "prefix differs from full trail" true
    (fp [ Action.Mutate 0 ] <> fp reclaim_trail)

(* Two states that differ only in a detector's scan cursor scan
   differently, so the fingerprint must tell them apart.  P0's one
   scion (X, held from P1) is a candidate whose detection dead-ends at
   once: scanning it moves the cursor and nothing else the fingerprint
   reads — no envelope, table, summary or scope counter. *)
let test_fingerprint_reads_the_scan_cursor () =
  let caps = { Scenario.snapshots = 1; scans = 0; lgcs = 0; sends = 0; drops = 0 } in
  let sys, _ = run_exn ~caps (scenario "export_handshake") [ Action.Snapshot 0 ] in
  let before = System.fingerprint sys in
  let parked () = List.length (Adgc_rt.Network.pending (Adgc.Sim.net (System.sim sys))) in
  let parked_before = parked () in
  let detector = Adgc.Sim.detector (System.sim sys) 0 in
  check Alcotest.int "one detection" 1 (Adgc_dcda.Detector.scan detector);
  check Alcotest.int "it sent nothing" parked_before (parked ());
  check Alcotest.bool "the cursor moved" true
    (Option.is_some (Adgc_dcda.Detector.scan_cursor detector));
  check Alcotest.bool "the cursor alone tells the states apart" true
    (before <> System.fingerprint sys)

(* [Config.mc] runs the shipped detector: its policy, runtime and
   network differ from [Config.quick]'s, the configuration every
   driver runs, only in the fields its documentation lists. *)
let test_mc_config_differs_only_where_documented () =
  let module Config = Adgc.Config in
  let module Policy = Adgc_dcda.Policy in
  let module Runtime = Adgc_rt.Runtime in
  let shipped = Config.quick ~seed:0 ~n_procs:2 () in
  let mc = Config.mc () in
  let p = shipped.Config.policy and r = shipped.Config.runtime in
  check Alcotest.bool "policy: only periods, thresholds and deletion mode" true
    ({
       mc.Config.policy with
       Policy.idle_threshold = p.Policy.idle_threshold;
       scan_period = p.Policy.scan_period;
       snapshot_period = p.Policy.snapshot_period;
       cooldown = p.Policy.cooldown;
       deletion_mode = p.Policy.deletion_mode;
     }
    = p);
  check Alcotest.bool "runtime: only scion grace and dgc_window" true
    ({ mc.Config.runtime with Runtime.scion_grace = r.Runtime.scion_grace; dgc_window = r.Runtime.dgc_window }
    = r);
  check Alcotest.bool "network: only the delivery mode" true
    ({ mc.Config.net with Adgc_rt.Network.delivery = shipped.Config.net.Adgc_rt.Network.delivery }
    = shipped.Config.net);
  check Alcotest.int "mc explores the shipped scan width" 16 mc.Config.policy.Policy.max_per_scan;
  check Alcotest.bool "mc deletes by broadcast" true
    (mc.Config.policy.Policy.deletion_mode = Policy.Broadcast);
  check Alcotest.bool "mc delivers by hand" true
    (mc.Config.net.Adgc_rt.Network.delivery = Adgc_rt.Network.Manual)

(* ------------------------------------------------------------------ *)
(* The mutation gauntlet. *)

let test_gauntlet () =
  check Alcotest.int "eight mutants" 8 (List.length Mutants.all);
  List.iter
    (fun (e : Mutants.entry) ->
      let o = Mutants.run_entry e in
      check Alcotest.bool (e.Mutants.mutant ^ " caught") true o.Mutants.caught;
      check Alcotest.bool (e.Mutants.mutant ^ " deterministic") true o.Mutants.deterministic;
      check Alcotest.bool
        (e.Mutants.mutant ^ " minimized no longer than witness")
        true
        (List.length o.Mutants.minimized <= List.length e.Mutants.witness);
      check Alcotest.bool (e.Mutants.mutant ^ " minimized non-empty") true
        (o.Mutants.minimized <> []);
      (* The packaged trace must reproduce through the public replay
         path — the same code `adgc_sim mc --replay` runs. *)
      match Trace.replay (Mutants.trace_of o) with
      | Trace.Reproduced -> ()
      | Trace.Failed reason -> Alcotest.failf "%s: trace replay failed: %s" e.Mutants.mutant reason)
    Mutants.all

(* ------------------------------------------------------------------ *)
(* Trace files. *)

let sample_trace () =
  {
    Trace.scenario = "two_proc_cycle";
    mutant = None;
    expect = Trace.Violation;
    caps = Some Scenarios.lost_cdm_caps;
    violations = [ "live_reclaimed: ..." ];
    trail = reclaim_trail;
  }

(* A mutant trace with no scope override round-trips too: the
   optional fields come back as they were written. *)
let test_trace_json_roundtrip () =
  let t =
    { (sample_trace ()) with Trace.mutant = Some "skip_ic_guards"; caps = None; violations = [] }
  in
  let path = Filename.temp_file "adgc_mc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      match Trace.load path with
      | Ok t' -> check Alcotest.bool "roundtrip" true (t = t')
      | Error e -> Alcotest.failf "decode failed: %s" e)

let test_trace_file_roundtrip () =
  let t = sample_trace () in
  let path = Filename.temp_file "adgc_mc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      match Trace.load path with
      | Ok t' -> check Alcotest.bool "file roundtrip" true (t = t')
      | Error e -> Alcotest.failf "load failed: %s" e)

(* A trace saved against a scope that no longer exists (the retired
   grouped_cycle) is refused by name, not replayed against some other
   scope; every kept scope still resolves. *)
let test_trace_unknown_scope () =
  List.iter
    (fun (s : Scenario.t) ->
      check Alcotest.bool (s.Scenario.name ^ " resolves") true
        (Option.is_some (Scenarios.find s.Scenario.name)))
    Scenarios.all;
  check Alcotest.bool "grouped_cycle is retired" true (Scenarios.find "grouped_cycle" = None);
  match Trace.replay { (sample_trace ()) with Trace.scenario = "grouped_cycle" } with
  | Trace.Reproduced -> Alcotest.fail "replayed a trace of a retired scope"
  | Trace.Failed reason ->
      check Alcotest.string "refused by name" "unknown scenario \"grouped_cycle\"" reason

let test_trace_rejects_junk () =
  let path = Filename.temp_file "adgc_mc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "\"nope\"");
      match Trace.load path with
      | Ok _ -> Alcotest.fail "accepted junk"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Swarm smoke: randomized walks over the clean build find nothing. *)

let test_swarm_clean () =
  match
    Explore.swarm ~seeds:(List.init 16 (fun i -> 1000 + i)) ~steps:30 (scenario "two_proc_cycle")
  with
  | None -> ()
  | Some (seed, _, viols) ->
      Alcotest.failf "swarm seed %d violated: %s" seed (String.concat "; " viols)

let test_swarm_ic_race_clean () =
  match Explore.swarm ~seeds:(List.init 16 (fun i -> 2000 + i)) ~steps:30 (scenario "ic_race") with
  | None -> ()
  | Some (seed, _, viols) ->
      Alcotest.failf "ic_race swarm seed %d violated: %s" seed (String.concat "; " viols)

let suite =
  ( "mc",
    [
      Alcotest.test_case "exhaustive: two_proc_cycle clean" `Slow test_exhaustive_two_proc_cycle;
      Alcotest.test_case "exhaustive: ic_race clean" `Slow test_exhaustive_ic_race;
      Alcotest.test_case "exhaustive: external_holder clean" `Slow
        test_exhaustive_external_holder;
      Alcotest.test_case "exhaustive: export_handshake clean" `Slow
        test_exhaustive_export_handshake;
      Alcotest.test_case "verdict: cycle reclaimed" `Quick test_reclaim_verdict;
      Alcotest.test_case "verdict: lost CDM retried" `Quick test_lost_cdm_verdict;
      Alcotest.test_case "verdict: stale snapshot superseded" `Quick
        test_stale_witness_unmutated_verdict;
      Alcotest.test_case "verdict: settled IC race reclaims" `Quick
        test_ic_race_settled_reclaims;
      Alcotest.test_case "verdict: in-flight IC race aborts" `Quick
        test_ic_race_in_flight_aborts;
      Alcotest.test_case "replay is deterministic" `Quick test_replay_deterministic;
      Alcotest.test_case "replay is deterministic: ic_race" `Quick
        test_ic_race_replay_deterministic;
      Alcotest.test_case "fingerprint distinguishes states" `Quick test_fingerprint_sensitive;
      Alcotest.test_case "fingerprint distinguishes scan cursors" `Quick
        test_fingerprint_reads_the_scan_cursor;
      Alcotest.test_case "config: mc differs from the shipped config only where documented"
        `Quick test_mc_config_differs_only_where_documented;
      Alcotest.test_case "mutation gauntlet" `Slow test_gauntlet;
      Alcotest.test_case "trace json roundtrip" `Quick test_trace_json_roundtrip;
      Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
      Alcotest.test_case "trace rejects junk" `Quick test_trace_rejects_junk;
      Alcotest.test_case "trace of a retired scope is refused" `Quick test_trace_unknown_scope;
      Alcotest.test_case "swarm finds nothing on the clean build" `Slow test_swarm_clean;
      Alcotest.test_case "swarm finds nothing on ic_race" `Slow test_swarm_ic_race_clean;
    ] )
