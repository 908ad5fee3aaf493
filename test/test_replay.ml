(* Deterministic replay: the same seed and scenario must reproduce the
   exact same run — byte-identical metrics JSON and an identical span
   digest — across detectors and fault profiles.  This pins down both
   the simulator's determinism and the exporters' stability (sorted
   keys, canonical float rendering, no wall-clock leakage). *)

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
              check Alcotest.string (label ^ ": span digest") d1 d2)
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
