(* The model checker checking itself: exhaustive unmutated scopes are
   clean and complete, every gauntlet mutant is caught with a
   deterministic minimized counterexample, and the scripted
   paper-conformance trails produce their exact verdicts. *)

open Adgc_mc

let check = Alcotest.check

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

let test_exhaustive_two_proc_cycle () = assert_clean ~states:541 Scenarios.two_proc_cycle

let test_exhaustive_ic_race () = assert_clean ~states:1708 Scenarios.ic_race

let test_exhaustive_external_holder () = assert_clean ~states:1920 Scenarios.external_holder

let test_exhaustive_export_handshake () =
  (* One listing round exhaustively; the two-round scope (needed by the
     ack_before_delivery witness) is covered by the gauntlet replay and
     the full CI sweep. *)
  assert_clean ~states:3172
    ~caps:{ Scenario.snapshots = 0; scans = 0; lgcs = 1; sends = 1; drops = 0 }
    Scenarios.export_handshake

let test_exhaustive_grouped_cycle () = assert_clean ~states:24704 Scenarios.grouped_cycle

(* ------------------------------------------------------------------ *)
(* Conformance trails: exact verdicts for the paper's worked cases. *)

let run_exn ?mutant ?caps scenario trail =
  match Explore.run ?mutant ?caps scenario trail with
  | Ok (sys, viols) -> (sys, viols)
  | Error reason -> Alcotest.failf "trail inapplicable: %s" reason

let test_reclaim_verdict () =
  let sys, viols = run_exn Scenarios.two_proc_cycle Scenarios.reclaim_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "cycle reclaimed" true (System.goal_reached sys)

let test_grouped_reclaim_verdict () =
  let sys, viols = run_exn Scenarios.grouped_cycle Scenarios.grouped_reclaim_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "cycle reclaimed through the group relays" true
    (System.goal_reached sys)

let test_lost_cdm_verdict () =
  let sys, viols =
    run_exn ~caps:Scenarios.lost_cdm_caps Scenarios.two_proc_cycle Scenarios.lost_cdm_trail
  in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "reclaimed despite the lost CDM" true (System.goal_reached sys)

let test_stale_witness_unmutated_verdict () =
  let sys, viols =
    run_exn ~caps:Scenarios.stale_witness_caps Scenarios.two_proc_cycle
      Scenarios.stale_witness_trail
  in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "later snapshot supersedes the stale one" true (System.goal_reached sys)

let test_ic_race_settled_reclaims () =
  let sys, viols = run_exn Scenarios.ic_race Scenarios.ic_race_reclaim_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  check Alcotest.bool "settled counters allow the reclaim" true (System.goal_reached sys)

let test_ic_race_in_flight_aborts () =
  let sys, viols = run_exn Scenarios.ic_race Scenarios.ic_race_abort_trail in
  check Alcotest.int "no violations" 0 (List.length viols);
  (* Safety rule 3: the CDM carrying the bumped stub counter aborts at
     delivery, so the (live) cycle survives both local collections. *)
  check Alcotest.bool "no reclamation" false (System.goal_reached sys)

(* ------------------------------------------------------------------ *)
(* Determinism: a trail is a pure function of the initial scenario. *)

let test_replay_deterministic () =
  let fp trail =
    let sys, _ = run_exn Scenarios.two_proc_cycle trail in
    System.fingerprint sys
  in
  check Alcotest.string "same trail, same state" (fp Scenarios.reclaim_trail)
    (fp Scenarios.reclaim_trail)

let test_grouped_replay_deterministic () =
  let fp () =
    let sys, _ = run_exn Scenarios.grouped_cycle Scenarios.grouped_reclaim_trail in
    System.fingerprint sys
  in
  check Alcotest.string "same grouped trail, same state" (fp ()) (fp ())

let test_fingerprint_sensitive () =
  let fp trail =
    let sys, _ = run_exn Scenarios.two_proc_cycle trail in
    System.fingerprint sys
  in
  check Alcotest.bool "prefix differs from full trail" true
    (fp [ Action.Mutate 0 ] <> fp Scenarios.reclaim_trail)

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
    trail = Scenarios.reclaim_trail;
  }

let test_trace_json_roundtrip () =
  let t = sample_trace () in
  match Trace.of_json (Trace.to_json t) with
  | Ok t' -> check Alcotest.bool "roundtrip" true (t = t')
  | Error e -> Alcotest.failf "decode failed: %s" e

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

let test_trace_rejects_junk () =
  match Trace.of_json (Adgc_util.Json.Str "nope") with
  | Ok _ -> Alcotest.fail "accepted junk"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Swarm smoke: randomized walks over the clean build find nothing. *)

let test_swarm_clean () =
  match
    Explore.swarm ~seeds:(List.init 16 (fun i -> 1000 + i)) ~steps:30 Scenarios.two_proc_cycle
  with
  | None -> ()
  | Some (seed, _, viols) ->
      Alcotest.failf "swarm seed %d violated: %s" seed (String.concat "; " viols)

let suite =
  ( "mc",
    [
      Alcotest.test_case "exhaustive: two_proc_cycle clean" `Slow test_exhaustive_two_proc_cycle;
      Alcotest.test_case "exhaustive: ic_race clean" `Slow test_exhaustive_ic_race;
      Alcotest.test_case "exhaustive: external_holder clean" `Slow
        test_exhaustive_external_holder;
      Alcotest.test_case "exhaustive: export_handshake clean" `Slow
        test_exhaustive_export_handshake;
      Alcotest.test_case "exhaustive: grouped_cycle clean" `Slow test_exhaustive_grouped_cycle;
      Alcotest.test_case "verdict: cycle reclaimed" `Quick test_reclaim_verdict;
      Alcotest.test_case "verdict: grouped cycle reclaimed" `Quick test_grouped_reclaim_verdict;
      Alcotest.test_case "verdict: lost CDM retried" `Quick test_lost_cdm_verdict;
      Alcotest.test_case "verdict: stale snapshot superseded" `Quick
        test_stale_witness_unmutated_verdict;
      Alcotest.test_case "verdict: settled IC race reclaims" `Quick
        test_ic_race_settled_reclaims;
      Alcotest.test_case "verdict: in-flight IC race aborts" `Quick
        test_ic_race_in_flight_aborts;
      Alcotest.test_case "replay is deterministic" `Quick test_replay_deterministic;
      Alcotest.test_case "replay is deterministic: grouped_cycle" `Quick
        test_grouped_replay_deterministic;
      Alcotest.test_case "fingerprint distinguishes states" `Quick test_fingerprint_sensitive;
      Alcotest.test_case "mutation gauntlet" `Slow test_gauntlet;
      Alcotest.test_case "trace json roundtrip" `Quick test_trace_json_roundtrip;
      Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
      Alcotest.test_case "trace rejects junk" `Quick test_trace_rejects_junk;
      Alcotest.test_case "swarm finds nothing on the clean build" `Slow test_swarm_clean;
    ] )
