(* The bench harness itself, in smoke mode: every perf section runs,
   the results document validates against the checked-in schema, a
   same-seed re-run reproduces every non-timing field, and the gate
   subcommands of bench/main.exe exit the way docs/BENCHMARKING.md
   says (0 on a clean baseline, 1 on a synthetic regression, 2 on an
   IO error).

   Paper sections (table1, serialization, ...) are print-only with no
   smoke sizing and feed nothing into the gated document, so they are
   exercised by `dune exec bench/main.exe`, not here. *)

module Bench_common = Adgc_bench.Bench_common
module Bench_sections = Adgc_bench.Bench_sections
module Results = Adgc_perf.Results
module Sample = Adgc_perf.Sample
module Compare = Adgc_perf.Compare
module Json = Adgc_util.Json

let check = Alcotest.check

let perf_section_names = List.map fst Bench_sections.perf

let run_smoke =
  (* One shared pair of runs: the sections take ~1s but there is no
     reason to pay it per test case. *)
  let cache = ref None in
  fun () ->
    match !cache with
    | Some pair -> pair
    | None ->
        Bench_common.force_smoke true;
        let doc1 = Bench_sections.run ~names:perf_section_names () in
        let doc2 = Bench_sections.run ~names:perf_section_names () in
        cache := Some (doc1, doc2);
        (doc1, doc2)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let repo_file name =
  (* cwd is _build/default/test under `dune runtest`, the repo root
     under `dune exec test/test_main.exe`. *)
  let candidates = [ Filename.concat "../bench" name; Filename.concat "bench" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "bench/%s not found from %s" name (Sys.getcwd ())

let results_schema () =
  match Json.of_string (read_file (repo_file "results_schema.json")) with
  | Ok schema -> schema
  | Error e -> Alcotest.failf "results_schema.json is not valid JSON: %s" e

let test_sections_cover_the_contract () =
  let doc, _ = run_smoke () in
  let sections = List.map fst doc.Results.sections in
  List.iter
    (fun s -> check Alcotest.bool (s ^ " section present") true (List.mem s sections))
    [ "tracer"; "telemetry"; "net"; "detection"; "scale" ];
  check Alcotest.bool "document is marked smoke" true doc.Results.smoke;
  (* The acceptance series: p99 end-to-end detection latency, gated
     by an SLO ceiling, deterministic in simulated ticks. *)
  match Scaffold.find_sample doc "detection.ring4.dcda.detection_latency.p99" with
  | None -> Alcotest.fail "detection latency p99 series missing"
  | Some s ->
      check Alcotest.bool "p99 latency carries an SLO" true (s.Sample.slo <> None);
      check Alcotest.bool "p99 latency is deterministic-class" true
        (s.Sample.klass = Sample.Deterministic);
      check Alcotest.string "p99 latency is in ticks" "ticks" s.Sample.unit_

let test_document_validates () =
  let doc, _ = run_smoke () in
  let schema = results_schema () in
  (* Through the serialized form a consumer reads back. *)
  match Json.of_string (Scaffold.results_to_string doc) with
  | Error e -> Alcotest.failf "results document does not reparse: %s" e
  | Ok reparsed -> (
      match Json_schema.validate ~schema reparsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reparsed results document rejected: %s" e)

let test_checked_in_baseline_validates () =
  let raw = read_file (repo_file "baseline.json") in
  (match Json.of_string raw with
  | Error e -> Alcotest.failf "baseline.json is not valid JSON: %s" e
  | Ok j -> (
      match Json_schema.validate ~schema:(results_schema ()) j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "baseline.json rejected by schema: %s" e));
  match Results.load (repo_file "baseline.json") with
  | Error e -> Alcotest.failf "baseline.json does not load: %s" e
  | Ok baseline ->
      (* The checked-in baseline must gate itself clean — otherwise a
         fresh checkout fails CI before anyone changes anything. *)
      let findings = Compare.compare_docs ~baseline ~current:baseline () in
      check Alcotest.int "baseline self-check is clean" 0 (Compare.exit_code findings)

let test_rerun_is_deterministic () =
  let doc1, doc2 = run_smoke () in
  check Alcotest.string "same-seed re-run reproduces every non-timing field"
    (Scaffold.fingerprint doc1) (Scaffold.fingerprint doc2)

(* --- the CLI gate, end to end ------------------------------------ *)

let bench_exe () =
  match
    List.find_opt Sys.file_exists
      [
        Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe";
        "_build/default/bench/main.exe";
      ]
  with
  | Some p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  | None -> Alcotest.fail "bench/main.exe not built"

let run_cli args =
  let cmd =
    String.concat " " (List.map Filename.quote (bench_exe () :: args)) ^ " >/dev/null 2>&1"
  in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s died on a signal" cmd

let with_temp f =
  let path = Filename.temp_file "adgc_perf" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let regress doc =
  (* Double every deterministic median: far outside the unrelaxable
     band, so the gate must trip however slow the host is. *)
  {
    doc with
    Results.sections =
      List.map
        (fun (name, samples) ->
          ( name,
            List.map
              (fun (s : Sample.t) ->
                if s.Sample.klass = Sample.Deterministic && Float.is_finite s.Sample.median
                   && s.Sample.median > 0.0
                then
                  {
                    s with
                    Sample.median = (s.Sample.median *. 2.0) +. 10.0;
                    mean = (s.Sample.mean *. 2.0) +. 10.0;
                    min = (s.Sample.min *. 2.0) +. 10.0;
                    p99 = (s.Sample.p99 *. 2.0) +. 10.0;
                  }
                else s)
              samples ))
        doc.Results.sections;
  }

let test_cli_gates () =
  let doc, _ = run_smoke () in
  with_temp (fun baseline ->
      with_temp (fun current ->
          Results.save current doc;
          check Alcotest.int "promote exits 0" 0
            (run_cli [ "promote"; "--baseline"; baseline; "--current"; current ]);
          check Alcotest.int "check against the promoted baseline exits 0" 0
            (run_cli [ "check"; "--baseline"; baseline; "--current"; current ]);
          check Alcotest.int "report exits 0" 0
            (run_cli [ "report"; "--baseline"; baseline; "--current"; current ]);
          Results.save current (regress doc);
          check Alcotest.int "synthetic regression exits 1" 1
            (run_cli [ "check"; "--baseline"; baseline; "--current"; current ]);
          check Alcotest.int "relax does not forgive deterministic regressions" 1
            (run_cli [ "check"; "--baseline"; baseline; "--current"; current; "--relax"; "100" ]);
          (* No current results: the baseline self-checks green. *)
          Sys.remove current;
          check Alcotest.int "missing current self-checks the baseline" 0
            (run_cli [ "check"; "--baseline"; baseline; "--current"; current ])))

let test_cli_io_errors () =
  check Alcotest.int "missing baseline exits 2" 2
    (run_cli [ "check"; "--baseline"; "/nonexistent/baseline.json" ]);
  check Alcotest.int "promote without results exits 2" 2
    (run_cli [ "promote"; "--current"; "/nonexistent/latest.json" ])

(* bench/main.exe reads its first argument as a gate subcommand before
   it reads it as a section name. *)
let test_sections_leave_gate_names () =
  check
    Alcotest.(list string)
    "no section is named like a gate subcommand" []
    (List.filter (fun n -> List.mem n [ "check"; "promote"; "report" ]) Bench_sections.names)

let suite =
  ( "bench-smoke",
    [
      Alcotest.test_case "every perf section reports" `Slow test_sections_cover_the_contract;
      Alcotest.test_case "results document validates" `Slow test_document_validates;
      Alcotest.test_case "checked-in baseline validates" `Quick
        test_checked_in_baseline_validates;
      Alcotest.test_case "same-seed re-run is deterministic" `Slow test_rerun_is_deterministic;
      Alcotest.test_case "perf CLI gates end to end" `Slow test_cli_gates;
      Alcotest.test_case "perf CLI distinguishes IO errors" `Quick test_cli_io_errors;
      Alcotest.test_case "no section shadows a gate subcommand" `Quick
        test_sections_leave_gate_names;
    ] )
