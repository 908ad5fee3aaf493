(* Benchmark runner.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- tracer detection
                                         -- run selected sections

   Perf sections (tracer, telemetry, net, detection, scale, wire) record
   uniform sample series; after the run the results document is
   written to bench/results/<rev>.json and bench/results/latest.json
   for `adgc_sim perf check` to gate against bench/baseline.json.
   Paper sections (table1, serialization, ...) print the paper's
   tables and record nothing.  ADGC_BENCH_SMOKE=1 selects the
   CI-sized variant of every section; docs/BENCHMARKING.md has the
   full workflow. *)

module Bench_sections = Adgc_bench.Bench_sections

let results_dir () =
  match Sys.getenv_opt "ADGC_BENCH_RESULTS_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> "bench/results"

let () =
  let requested =
    match Array.to_list Sys.argv with _ :: (_ :: _ as names) -> names | _ :: [] | [] -> []
  in
  let doc =
    try Bench_sections.run ~names:requested ()
    with Invalid_argument msg ->
      Printf.eprintf "%s; available: %s\n" msg (String.concat ", " Bench_sections.names);
      exit 1
  in
  print_endline "\nall requested benchmark sections completed";
  if Adgc_perf.Results.samples doc = [] then
    print_endline "(no perf sections requested; no results document written)"
  else begin
    let rev_path, latest_path =
      Adgc_perf.Results.save_results ~dir:(results_dir ()) doc
    in
    Printf.printf "wrote %s\nwrote %s\n" rev_path latest_path
  end
