(* Deterministic replay: the same seed and scenario must reproduce the
   exact same run — byte-identical metrics JSON and an identical span
   digest — across detectors and fault profiles.  This pins down both
   the simulator's determinism and the exporters' stability (sorted
   keys, canonical float rendering, no wall-clock leakage).  Every
   scenario's bytes are also pinned, so a change that reorders the
   kept path's work fails here, not only when two runs of one build
   disagree. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Faults = Adgc_rt.Faults
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
open Adgc_workload

let check = Alcotest.check

let run_once ?dgc_window ~seed ~detector ~faulty () =
  let n_procs = 6 in
  let config = Config.quick ~seed ~n_procs () in
  let faults =
    if faulty then Faults.plan_of_profile ~n_procs Faults.Loss_burst else Faults.none
  in
  let config = Detector_column.config detector config in
  (* Byte accounting on: every document carries the [net.bytes*] keys,
     so a change to what goes on the wire moves a pin. *)
  let net = { config.Config.net with Adgc_rt.Network.account_bytes = true } in
  let config = { config with Config.faults; telemetry = true; net } in
  let config =
    match dgc_window with
    | None -> config
    | Some dgc_window ->
        { config with Config.runtime = { config.Config.runtime with Adgc_rt.Runtime.dgc_window } }
  in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 3; 4 ] in
  let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create ((seed * 7) + 1)) () in
  Churn.run churn ~steps:200 ~every:23;
  ignore (Detector_column.start detector sim);
  Sim.run_for sim 20_000;
  Sim.teardown sim;
  let metrics = Json.to_string (Export.metrics_document (Sim.stats sim)) in
  let digest = Export.span_digest (Sim.obs sim) in
  (metrics, digest)

(* (scenario, MD5 of the metrics JSON, span digest).  A change that
   moves any of these changes what the system does: re-pin only with
   the reason in CHANGES.md. *)
let pinned =
  [
    ("dcda/no-faults/seed=3", "76dfe7da68842b000bae2a0e9a5baa6f", "5659d1787b251ae5b0dc8cc55b51bcd5");
    ("dcda/no-faults/seed=17", "e06864e3f503c06594d4d8751c4f4ccb", "f9de4dee901b026a8a6a6d7870336718");
    ("dcda/no-faults/seed=42", "2178df2c61da74c9d685829bc934009e", "95390425cfeb2b64f3b2175516f9c79d");
    ("dcda/bursty/seed=3", "4da1c8df0bc7ce4e31c02229052b8f09", "1c6bb0a216ce3775a14cbace1b259afd");
    ("dcda/bursty/seed=17", "62ad520418b1b32e49c577ee4e959e61", "afd6ccf126d0f1d82faf20bde7509b1e");
    ("dcda/bursty/seed=42", "39c7cdb6fa9cbb0a469754adee09b841", "13716ad660b89b7eb03f4799277ead9a");
    ("backtrack/no-faults/seed=3", "ba6b7febb095b69ae58be783e0c1803b", "2da737e98be6d4cc11e19651ece1cb44");
    ("backtrack/no-faults/seed=17", "96d92a3eb2831a6e1226a4ccd21f54bf", "cf2cfbc6ada13e2bffb1fca5d6f2f816");
    ("backtrack/no-faults/seed=42", "964095068df3fba5b5157bda2ea92c53", "9a27ecdf7fad01dc265e217dcf6e2c27");
    ("backtrack/bursty/seed=3", "2f792ea9fb13e55e96e4cdaf9defcf25", "49a46f2ddc780aead42861d5a0bf1d60");
    ("backtrack/bursty/seed=17", "464ef4a61de9654ad77bab36501a9f06", "d0f590b376e6bc85b51429e597520778");
    ("backtrack/bursty/seed=42", "8bf681acd5c9a1accdfa2e5e50c9d79c", "e1620479be41d013bf5ef0b60aae1e27");
    ("sync/no-faults/seed=3", "77fd847777bbf5e649953dc8ed4cd62e", "381f3960be1333ff6ee4aeefae23e5fe");
    ("sync/no-faults/seed=17", "996aa1129fcb1d529cc58f58b7efd1f4", "0a2fca57589475e12e9e41bc9b50298a");
    ("sync/no-faults/seed=42", "4bf4ed155cfa7e542bf43b6a20e39f3e", "4191987ce1640530dc9d8776824b45b8");
    ("sync/bursty/seed=3", "1577f6a7b1e522fc96d34f65cc290642", "bb2cced86bbd6fd962504104a4b00d7f");
    ("sync/bursty/seed=17", "358cf8e16093ec2cdf8cd0eb2d4ed929", "711e06a2f62421b43c8231f207ce6ab3");
    ("sync/bursty/seed=42", "2e2e7bd85ad01dbefdf51ef23a1d11ac", "e8f9d7cb00d6f45e5b87ec38893e3a54");
  ]

let check_pinned label metrics digest =
  match List.find_opt (fun (l, _, _) -> String.equal l label) pinned with
  | Some (_, md5, span) ->
      check Alcotest.string (label ^ ": pinned metrics MD5") md5
        (Digest.to_hex (Digest.string metrics));
      check Alcotest.string (label ^ ": pinned span digest") span digest
  | None -> Alcotest.failf "%s: no pinned digest" label

let test_replay_identical () =
  List.iter
    (fun detector ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              let label =
                Printf.sprintf "%s/%s/seed=%d" (Detector_column.name detector)
                  (if faulty then "bursty" else "no-faults")
                  seed
              in
              let m1, d1 = run_once ~seed ~detector ~faulty () in
              let m2, d2 = run_once ~seed ~detector ~faulty () in
              check Alcotest.string (label ^ ": metrics JSON") m1 m2;
              check Alcotest.string (label ^ ": span digest") d1 d2;
              check_pinned label m1 d1)
            [ 3; 17; 42 ])
        [ false; true ])
    Detector_column.all

(* The synchronous send path ([dgc_window = 0]: every control payload
   leaves inside [send_dgc], no flush is ever scheduled) must be as
   deterministic as the batched one.  The batched run of the same seed
   must differ, or the window was never in effect. *)
let test_sync_replay_identical () =
  List.iter
    (fun faulty ->
      List.iter
        (fun seed ->
          let label =
            Printf.sprintf "sync/%s/seed=%d" (if faulty then "bursty" else "no-faults") seed
          in
          let m1, d1 = run_once ~dgc_window:0 ~seed ~detector:Detector_column.Dcda ~faulty () in
          let m2, d2 = run_once ~dgc_window:0 ~seed ~detector:Detector_column.Dcda ~faulty () in
          check Alcotest.string (label ^ ": metrics JSON") m1 m2;
          check Alcotest.string (label ^ ": span digest") d1 d2;
          check_pinned label m1 d1;
          let batched, _ = run_once ~seed ~detector:Detector_column.Dcda ~faulty () in
          check Alcotest.bool (label ^ ": differs from the batched run") false
            (String.equal m1 batched))
        [ 3; 17; 42 ])
    [ false; true ]

let test_seeds_actually_differ () =
  (* Guard against a trivially-constant export: different seeds must
     produce different runs. *)
  let m1, _ = run_once ~seed:3 ~detector:Detector_column.Dcda ~faulty:false () in
  let m2, _ = run_once ~seed:17 ~detector:Detector_column.Dcda ~faulty:false () in
  check Alcotest.bool "seeds produce distinct metrics" false (String.equal m1 m2)

let suite =
  ( "replay",
    [
      Alcotest.test_case "same seed, same bytes (12 scenarios)" `Quick test_replay_identical;
      Alcotest.test_case "sync: same seed, same bytes (6 scenarios)" `Quick
        test_sync_replay_identical;
      Alcotest.test_case "different seeds, different runs" `Quick test_seeds_actually_differ;
    ] )
