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
  let config = { config with Config.faults; telemetry = true } in
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
    ("dcda/no-faults/seed=3", "db53cf3cfafedf3d12984eb36532ab41", "5659d1787b251ae5b0dc8cc55b51bcd5");
    ("dcda/no-faults/seed=17", "86c3ef65be31f3d5d3ebdbb29a665b23", "f9de4dee901b026a8a6a6d7870336718");
    ("dcda/no-faults/seed=42", "0a1aea588ca645aa1f6aec83cd5699bf", "95390425cfeb2b64f3b2175516f9c79d");
    ("dcda/bursty/seed=3", "6a8ff0eef37c7160ca1b21f132d1f604", "1c6bb0a216ce3775a14cbace1b259afd");
    ("dcda/bursty/seed=17", "b3a303beb8085865dc76398bcd85abd9", "afd6ccf126d0f1d82faf20bde7509b1e");
    ("dcda/bursty/seed=42", "5c12e2085fd7d127d51b1c65f2232745", "13716ad660b89b7eb03f4799277ead9a");
    ("backtrack/no-faults/seed=3", "bfb26d5ab93bd2befb6af657bc937286", "2da737e98be6d4cc11e19651ece1cb44");
    ("backtrack/no-faults/seed=17", "eaeb5b27591f1c17d55039d1f6a4b332", "cf2cfbc6ada13e2bffb1fca5d6f2f816");
    ("backtrack/no-faults/seed=42", "c912807803505318570cf55fcdbbfea5", "9a27ecdf7fad01dc265e217dcf6e2c27");
    ("backtrack/bursty/seed=3", "109a5e4146a38ed9a8a9df60ad17017f", "49a46f2ddc780aead42861d5a0bf1d60");
    ("backtrack/bursty/seed=17", "cae2e44921fe2eeacc550fd77bcc402e", "d0f590b376e6bc85b51429e597520778");
    ("backtrack/bursty/seed=42", "5bda7abd0206d28bbcf56e00b61ff6f6", "e1620479be41d013bf5ef0b60aae1e27");
    ("sync/no-faults/seed=3", "1c8e82c71f9bcfc195d7f965993eff97", "381f3960be1333ff6ee4aeefae23e5fe");
    ("sync/no-faults/seed=17", "3ee549fffb404b374a04e4a3deef3a63", "0a2fca57589475e12e9e41bc9b50298a");
    ("sync/no-faults/seed=42", "18bb7272c193595bd7f415d4aaff2bdb", "4191987ce1640530dc9d8776824b45b8");
    ("sync/bursty/seed=3", "78e957df06512a0d21195d6c7196d8c2", "bb2cced86bbd6fd962504104a4b00d7f");
    ("sync/bursty/seed=17", "225fe8d71979df89fd91506bebd75d88", "711e06a2f62421b43c8231f207ce6ab3");
    ("sync/bursty/seed=42", "b55f25b96e69e2393c32ad9ced9c9345", "e8f9d7cb00d6f45e5b87ec38893e3a54");
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
