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
    ("dcda/no-faults/seed=3", "6704f0ea5d83a711a4e1e1c3580d7d1a", "0fd1c3631dc36af9cc4a8015cb4f7047");
    ("dcda/no-faults/seed=17", "93ddb60656c28a7f06f0bac97d209f57", "853991daeb316f44319381767812296b");
    ("dcda/no-faults/seed=42", "e8b9d9102bca92e6d11027324cc4644e", "f60dc93bf73962b5b0ff9b6a8247cd53");
    ("dcda/bursty/seed=3", "613e08b027c202c55e0cbb2cb14a96c2", "784cb98cb8f20202c60fa10a3da6db8a");
    ("dcda/bursty/seed=17", "adc8d3d90e2982206e6a2437871e7c48", "2200eff84b316a337a367fa28fe2a8fd");
    ("dcda/bursty/seed=42", "66fc5ad514b81ed1f7984cf30fa57c75", "0ac196278b80773b335db92f79339296");
    ("backtrack/no-faults/seed=3", "34ff100cff94e851edd2c62d7bd946ff", "64ef6573b4496013f61c72714e2e23bb");
    ("backtrack/no-faults/seed=17", "94cde16574bb3046c315d64c054181de", "060f5eba0cc1889b5f45420b57e6475d");
    ("backtrack/no-faults/seed=42", "55c1c2fff0222804a8b745557ae85a1b", "4aef9317e11f44d1fba95ed87c09c881");
    ("backtrack/bursty/seed=3", "b76f65a789356e6f7402da63676047b6", "29551ce1c7cb03cb8827bba172005f36");
    ("backtrack/bursty/seed=17", "34a03094d070d03e8f90fbde4b72945b", "9fac98d6c4f776b90ab92fabd4079384");
    ("backtrack/bursty/seed=42", "8cd95e27061bc0796d208f0560063153", "64dcd389d18cdb7d464a0b93a3354459");
    ("sync/no-faults/seed=3", "f4b370d701a333ac3c5802893fbd2e46", "a566893d6dd740dcbbe25aeb170d1606");
    ("sync/no-faults/seed=17", "011fb7800918ff426030d2cb5ab380f0", "395c9a46a13efe25ac6be852dd45edb4");
    ("sync/no-faults/seed=42", "ae5ee35e5c89964828afbf5c56c68bda", "e2bfb35a356a366e0a870dac5d80d2e3");
    ("sync/bursty/seed=3", "b180d4b86e30d7b96a815586393d9992", "4766da6b13b0ebf34266050e7ce9d01d");
    ("sync/bursty/seed=17", "3443651095907dd1e7f0c85deca21e24", "50f6660f2c838de839e97aa1e69cb97b");
    ("sync/bursty/seed=42", "11a86dad8c2754945c96fd842ebf236b", "58c6bebfda9db073bb798e0846e04adc");
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
