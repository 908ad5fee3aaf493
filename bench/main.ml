(* Benchmark runner and perf gate.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- tracer detection
                                         -- run selected sections
     dune exec bench/main.exe -- check   -- gate the latest results
     dune exec bench/main.exe -- report  -- every series' verdict
     dune exec bench/main.exe -- promote -- latest results -> baseline

   Perf sections (tracer, telemetry, net, detection, scale, wire) record
   uniform sample series; after the run the results document is
   written to bench/results/<rev>.json and bench/results/latest.json
   for `check` to gate against bench/baseline.json.  Paper sections
   (table1, serialization, ...) print the paper's tables and record
   nothing.  ADGC_BENCH_SMOKE=1 selects the CI-sized variant of every
   section; docs/BENCHMARKING.md has the full workflow. *)

module Bench_sections = Adgc_bench.Bench_sections
module Results = Adgc_perf.Results
module Sample = Adgc_perf.Sample
module Compare = Adgc_perf.Compare

let results_dir () =
  match Sys.getenv_opt "ADGC_BENCH_RESULTS_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> "bench/results"

let run_sections requested =
  let doc =
    try Bench_sections.run ~names:requested ()
    with Invalid_argument msg ->
      Printf.eprintf "%s; available: %s\n" msg (String.concat ", " Bench_sections.names);
      exit 1
  in
  print_endline "\nall requested benchmark sections completed";
  if Results.samples doc = [] then
    print_endline "(no perf sections requested; no results document written)"
  else begin
    let rev_path, latest_path = Results.save_results ~dir:(results_dir ()) doc in
    Printf.printf "wrote %s\nwrote %s\n" rev_path latest_path
  end

(* ----------------------------------------------------------------- *)
(* The gate: judge a results document against the checked-in         *)
(* baseline.  Exit codes: 0 clean, 1 gating regression, 2 IO error.   *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let fmt_sample = function
  | None -> "-"
  | Some (s : Sample.t) -> Printf.sprintf "%s %s" (fmt_value s.Sample.median) s.Sample.unit_

let pp_findings ?(all = false) findings =
  let shown =
    if all then findings
    else
      List.filter
        (fun f -> f.Compare.verdict <> Compare.Unchanged || f.Compare.slo_violated)
        findings
  in
  if shown <> [] then
    Adgc_util.Table.print
      ~header:[ "series"; "verdict"; "baseline"; "current"; "detail" ]
      ~rows:
        (List.map
           (fun (f : Compare.finding) ->
             [
               f.Compare.name;
               Compare.verdict_to_string f.Compare.verdict
               ^ (if f.Compare.slo_violated then " +SLO" else "");
               fmt_sample f.Compare.base;
               fmt_sample f.Compare.current;
               f.Compare.detail;
             ])
           shown)
      ();
  print_endline
    (String.concat "  "
       (List.map
          (fun (v, n) -> Printf.sprintf "%s: %d" (Compare.verdict_to_string v) n)
          (Compare.tally findings)))

let load what path =
  match Results.load path with
  | Ok doc -> Ok doc
  | Error e -> Error (Printf.sprintf "%s (%s): %s" what path e)

let check baseline current relax quiet =
  match load "baseline" baseline with
  | Error e ->
      Printf.eprintf "perf check: %s\n" e;
      2
  | Ok base_doc -> (
      let current_doc =
        if Sys.file_exists current then load "current results" current
        else begin
          (* No fresh run to judge: self-check the baseline so a clean
             checkout (bench not yet run) gates trivially green while
             still validating the document and any SLO ceilings. *)
          if not quiet then
            Printf.printf "no current results at %s; self-checking the baseline\n" current;
          Ok base_doc
        end
      in
      match current_doc with
      | Error e ->
          Printf.eprintf "perf check: %s\n" e;
          2
      | Ok cur_doc ->
          let findings = Compare.compare_docs ~relax ~baseline:base_doc ~current:cur_doc () in
          if not quiet then pp_findings findings;
          let code = Compare.exit_code findings in
          let regressions = List.length (Compare.regressions findings) in
          (if code = 0 then (if not quiet then print_endline "perf check: PASS")
           else
             Printf.eprintf "perf check: FAIL (%d gating regression%s)\n" regressions
               (if regressions = 1 then "" else "s"));
          code)

let promote baseline current quiet =
  match load "current results" current with
  | Error e ->
      Printf.eprintf "perf promote: %s\n" e;
      2
  | Ok doc ->
      Compare.promote ~baseline_path:baseline doc;
      if not quiet then Printf.printf "promoted %s -> %s\n" current baseline;
      0

let report baseline current relax =
  match (load "baseline" baseline, load "current results" current) with
  | Error e, _ | _, Error e ->
      Printf.eprintf "perf report: %s\n" e;
      2
  | Ok base_doc, Ok cur_doc ->
      Printf.printf "baseline: rev %s (smoke=%b)  current: rev %s (smoke=%b, %d cores)\n"
        base_doc.Results.rev base_doc.Results.smoke cur_doc.Results.rev cur_doc.Results.smoke
        cur_doc.Results.host.Results.cores;
      pp_findings ~all:true (Compare.compare_docs ~relax ~baseline:base_doc ~current:cur_doc ());
      0

open Cmdliner

let baseline_arg =
  Arg.(
    value
    & opt string "bench/baseline.json"
    & info [ "baseline" ] ~doc:"The checked-in baseline document." ~docv:"FILE")

let current_arg =
  Arg.(
    value
    & opt string "bench/results/latest.json"
    & info [ "current" ] ~doc:"The results document to judge (written by a bench run)."
        ~docv:"FILE")

let relax_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "relax" ]
        ~doc:
          "Extra tolerance multiplier applied to timing-class series only (use on slow or \
           1-core CI runners); deterministic series are never relaxed.")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only report problems.")

(* A section by one of these names could not be run by name: the
   subcommand shadows it. *)
let gate =
  [
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Compare the latest bench results against the checked-in baseline; exit 1 on a \
            gating regression (noise-model verdict or SLO breach), 2 on a usage/IO error.  \
            Without a current results file the baseline self-checks (clean checkouts gate \
            green).")
      Term.(const check $ baseline_arg $ current_arg $ relax_arg $ quiet_arg);
    Cmd.v
      (Cmd.info "promote"
         ~doc:
           "Overwrite the checked-in baseline with the latest results (canonical rendering, \
            so a promote followed by a check is always clean).")
      Term.(const promote $ baseline_arg $ current_arg $ quiet_arg);
    Cmd.v
      (Cmd.info "report" ~doc:"Print every series verdict (informational; always exits 0 or 2).")
      Term.(const report $ baseline_arg $ current_arg $ relax_arg);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: _ when List.exists (fun c -> Cmd.name c = cmd) gate ->
      exit
        (Cmd.eval'
           (Cmd.group
              (Cmd.info "main.exe"
                 ~doc:"Gate, promote or report bench results against bench/baseline.json.")
              gate))
  | _ :: requested -> run_sections requested
  | [] -> run_sections []
