(* The metrics document written by `adgc_sim run --metrics` and the
   bench harness is a consumer contract; test/metrics_schema.json is
   the checked-in description of it.  A shape change must show up here
   (and bump the schema_version it writes), not in a consumer's parser. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
module Stats = Adgc_util.Stats

let check = Alcotest.check

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let schema () =
  (* cwd is test/ under `dune runtest`, the repo root under
     `dune exec test/test_main.exe`. *)
  let path =
    if Sys.file_exists "metrics_schema.json" then "metrics_schema.json"
    else "test/metrics_schema.json"
  in
  match Json.of_string (read_file path) with
  | Ok schema -> schema
  | Error e -> Alcotest.failf "metrics_schema.json is not valid JSON: %s" e

let real_document () =
  let config = { (Config.quick ~seed:11 ~n_procs:4 ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  let _r = Adgc_workload.Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 15_000;
  Sim.teardown sim;
  Export.metrics_document
    ~meta:[ ("seed", Json.Int 11); ("detector", Json.Str "dcda") ]
    (Sim.stats sim)

let test_real_run_validates () =
  let doc = real_document () in
  (* Both the in-memory document and its serialized form (what a
     consumer actually reads back) must conform. *)
  (match Json_schema.validate ~schema:(schema ()) doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live metrics document rejected: %s" e);
  match Json.of_string (Json.to_string doc) with
  | Ok reparsed -> (
      match Json_schema.validate ~schema:(schema ()) reparsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reparsed metrics document rejected: %s" e)
  | Error e -> Alcotest.failf "metrics document does not reparse: %s" e

let test_schema_is_not_vacuous () =
  let reject what doc =
    match Json_schema.validate ~schema:(schema ()) doc with
    | Ok () -> Alcotest.failf "schema accepted %s" what
    | Error _ -> ()
  in
  reject "a bare object" (Json.Obj []);
  reject "a string counter"
    (Json.Obj
       [
         ("schema_version", Json.Int 1);
         ("meta", Json.Obj []);
         ( "stats",
           Json.Obj
             [
               ("counters", Json.Obj [ ("c", Json.Str "3") ]);
               ("histograms", Json.Obj []);
               ("series", Json.Obj []);
             ] );
       ]);
  reject "an unknown top-level member"
    (Json.Obj
       [
         ("schema_version", Json.Int 1);
         ("meta", Json.Obj []);
         ( "stats",
           Json.Obj
             [
               ("counters", Json.Obj []);
               ("histograms", Json.Obj []);
               ("series", Json.Obj []);
             ] );
         ("surprise", Json.Null);
       ])

let test_empty_stats_validate () =
  match Json_schema.validate ~schema:(schema ()) (Export.metrics_document (Stats.create ())) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty stats rejected: %s" e

let suite =
  ( "schema",
    [
      Alcotest.test_case "live metrics document conforms" `Quick test_real_run_validates;
      Alcotest.test_case "schema rejects malformed documents" `Quick test_schema_is_not_vacuous;
      Alcotest.test_case "empty stats conform" `Quick test_empty_stats_validate;
    ] )
