(* Aggregates every suite; `dune runtest` runs them all. *)

let () =
  Alcotest.run "adgc"
    [
      Test_util.suite;
      Test_obs.suite;
      Test_serial.suite;
      Test_algebra.suite;
      Test_rt_core.suite;
      Test_rt_gc.suite;
      Test_snapshot.suite;
      Test_detector.suite;
      Test_baseline.suite;
      Test_workload.suite;
      Test_integration.suite;
      Test_failures.suite;
      Test_hughes.suite;
      Test_model.suite;
      Test_matrix.suite;
      Test_faults_matrix.suite;
      Test_sim.suite;
      Test_group.suite;
      Test_replay.suite;
      Test_schema.suite;
      Test_mc.suite;
      Test_oracle.suite;
      Test_net_frame.suite;
      Test_net_conformance.suite;
      Test_net_fault.suite;
      Test_perf.suite;
      Test_bench.suite;
    ]
