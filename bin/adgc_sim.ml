(* adgc_sim: command-line driver for the simulator.

   Examples:
     adgc_sim run --topology fig3 --time 50000
     adgc_sim run --topology ring --procs 12 --loss 0.1 --detector dcda
     adgc_sim run --topology random --objects 200 --churn 1000 --trace dcda
     adgc_sim trace --topology fig4 *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Faults = Adgc_rt.Faults
module Oracle = Adgc_check.Oracle
module Stats = Adgc_util.Stats
module Trace = Adgc_util.Trace
module Net_scenario = Adgc_net.Scenario
open Adgc_workload

let topology_conv =
  let parse s =
    match Net_scenario.topology_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  Cmdliner.Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Net_scenario.topology_to_string t))

let detector_conv =
  let parse s =
    match Net_scenario.detector_of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown detector %S" s))
  in
  Cmdliner.Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Net_scenario.detector_to_string d))

let faults_conv =
  let parse s =
    match Faults.profile_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown fault profile %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (Faults.profile_name p) in
  Cmdliner.Arg.conv (parse, print)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_cmd topology procs seed loss detector time churn_steps objects edges trace_topics crash_list faults_profile metrics_file spans_file inspect quiet =
  let scenario = Net_scenario.make ~topology ~procs ~seed ~objects ~edges () in
  let n_procs = Net_scenario.n_procs scenario in
  let config = Config.quick ~seed ~n_procs () in
  config.Config.net.Network.drop_prob <- loss;
  (* Faults run over the middle of the run: armed at 1/5 of the time
     budget, quiescent at 3/5, leaving the last 2/5 for recovery. *)
  let faults =
    match faults_profile with
    | None -> Faults.none
    | Some p -> Faults.plan_of_profile ~start:(time / 5) ~stop:(time * 3 / 5) ~n_procs p
  in
  let telemetry = metrics_file <> None || spans_file <> None in
  let config = { config with Config.detector; faults; telemetry } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  if trace_topics <> [] then Trace.set_enabled (Sim.trace sim) true;
  let oracle = Oracle.install cluster in
  let _built = Net_scenario.build_topology scenario cluster in
  if churn_steps > 0 then begin
    let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed + 2)) () in
    Churn.run churn ~steps:churn_steps ~every:29
  end;
  (* Crash the listed processes one third into the run. *)
  List.iter
    (fun i ->
      Adgc_rt.Scheduler.schedule_after (Cluster.sched cluster) ~delay:(time / 3) (fun () ->
          Cluster.crash cluster i))
    crash_list;
  let initial = Metrics.sample cluster in
  Sim.start sim;
  Sim.run_for sim time;
  let final = Metrics.sample cluster in
  if inspect then Format.printf "@[<v>%a@]@." (Inspect.pp_cluster ?names:None) cluster;
  if not quiet then begin
    Format.printf "initial: %a@." Metrics.pp_sample initial;
    Format.printf "final  : %a@." Metrics.pp_sample final;
    List.iter (fun r -> Format.printf "cycle  : %a@." Adgc_dcda.Report.pp r) (Sim.reports sim);
    let stats = Sim.stats sim in
    let interesting prefix (k, _) =
      String.length k >= String.length prefix && String.sub k 0 (String.length prefix) = prefix
    in
    let print_group prefix =
      List.iter
        (fun (k, v) -> Format.printf "  %-40s %d@." k v)
        (List.filter (interesting prefix) (Stats.counters stats))
    in
    Format.printf "-- collector counters --@.";
    List.iter print_group [ "lgc."; "dgc."; "reflist."; "dcda."; "rmi."; "net.msg" ]
  end;
  List.iter
    (fun topic ->
      Format.printf "-- trace %s --@." topic;
      List.iter
        (fun (e : Trace.event) -> Format.printf "%a@." Trace.pp_event e)
        (Trace.by_topic (Sim.trace sim) topic))
    trace_topics;
  Oracle.stop oracle;
  Sim.teardown sim;
  (match metrics_file with
  | None -> ()
  | Some path ->
      let meta =
        [
          ("seed", Adgc_util.Json.Int seed);
          ("procs", Adgc_util.Json.Int n_procs);
          ("time", Adgc_util.Json.Int time);
          ( "detector",
            Adgc_util.Json.Str (Net_scenario.detector_to_string detector) );
        ]
      in
      write_file path
        (Adgc_util.Json.to_string_pretty (Adgc_obs.Export.metrics_document ~meta (Sim.stats sim)));
      if not quiet then Printf.printf "metrics written to %s\n" path);
  (match spans_file with
  | None -> ()
  | Some path ->
      write_file path (Adgc_util.Json.to_string (Adgc_obs.Export.chrome_trace (Sim.obs sim)));
      if not quiet then Printf.printf "spans written to %s\n" path);
  let live_reclaimed =
    List.length
      (List.filter
         (fun (e : Oracle.event) ->
           match e.Oracle.violation with Adgc_check.Invariant.Live_reclaimed _ -> true | _ -> false)
         (Oracle.events oracle))
  in
  match Oracle.first_report oracle with
  | None ->
      if final.Metrics.garbage = 0 then begin
        if not quiet then print_endline "OK: no garbage left, no safety violations";
        0
      end
      else begin
        Printf.printf "NOTE: %d garbage objects not yet reclaimed (increase --time?)\n"
          final.Metrics.garbage;
        0
      end
  | Some report ->
      if live_reclaimed > 0 then
        Printf.eprintf "SAFETY VIOLATIONS: %d live objects reclaimed!\n" live_reclaimed;
      Printf.eprintf "ORACLE:\n%s\n" report;
      1

(* ----------------------------------------------------------------- *)
(* mc: bounded model checking, trace replay and the mutation gauntlet. *)

module Mc_scenario = Adgc_mc.Scenario
module Mc_scenarios = Adgc_mc.Scenarios
module Mc_explore = Adgc_mc.Explore
module Mc_action = Adgc_mc.Action
module Mc_trace = Adgc_mc.Trace
module Mc_mutants = Adgc_mc.Mutants

let pp_trail ppf trail =
  List.iteri (fun i a -> Format.fprintf ppf "  %2d. %a@." (i + 1) Mc_action.pp a) trail

(* On a violation, delta-debug the trail down and save it as a
   replayable counterexample. *)
let emit_counterexample ?mutant ~scenario ~out trail =
  let test t =
    match Mc_explore.run ?mutant scenario t with
    | Ok (_, viols) -> viols <> []
    | Error _ -> false
  in
  let minimized = Mc_explore.ddmin ~test trail in
  let violations =
    match Mc_explore.run ?mutant scenario minimized with
    | Ok (_, viols) -> viols
    | Error _ -> []
  in
  let trace =
    {
      Mc_trace.scenario = scenario.Mc_scenario.name;
      mutant;
      expect = Mc_trace.Violation;
      caps = None;
      violations;
      trail = minimized;
    }
  in
  let path =
    match out with
    | Some p -> p
    | None -> Printf.sprintf "mc_%s_counterexample.json" scenario.Mc_scenario.name
  in
  Mc_trace.save path trace;
  Format.printf "minimized counterexample (%d of %d actions) written to %s@."
    (List.length minimized) (List.length trail) path;
  Format.printf "%a" pp_trail minimized;
  List.iter (fun v -> Format.printf "  violation: %s@." v) violations

let mc_scenarios_of = function
  | None -> Ok Mc_scenarios.all
  | Some name -> (
      match Mc_scenarios.find name with
      | Some s -> Ok [ s ]
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S (have: %s)" name
               (String.concat ", "
                  (List.map (fun (s : Mc_scenario.t) -> s.Mc_scenario.name) Mc_scenarios.all))))

let mc_explore ?mutant ~max_depth ~out scenarios =
  let failed = ref false in
  List.iter
    (fun (s : Mc_scenario.t) ->
      let t0 = Sys.time () in
      let o = Mc_explore.explore ?mutant ~max_depth s in
      let dt = Sys.time () -. t0 in
      Format.printf "%-18s %7d states %8d transitions  %s  (%.1fs)@." s.Mc_scenario.name
        o.Mc_explore.states o.Mc_explore.transitions
        (if o.Mc_explore.complete then "complete" else "depth-capped")
        dt;
      if not o.Mc_explore.complete then failed := true;
      match o.Mc_explore.violation with
      | None -> ()
      | Some (trail, _) ->
          failed := true;
          Format.printf "VIOLATION in %s:@." s.Mc_scenario.name;
          emit_counterexample ?mutant ~scenario:s ~out trail)
    scenarios;
  if !failed then 1 else 0

let mc_swarm ?mutant ~seeds ~steps ~seed ~out scenarios =
  let seed_list = List.init seeds (fun i -> seed + i) in
  let failed = ref false in
  List.iter
    (fun (s : Mc_scenario.t) ->
      match Mc_explore.swarm ?mutant ~seeds:seed_list ~steps s with
      | None ->
          Format.printf "%-18s %d walks x %d steps: no violation@." s.Mc_scenario.name seeds
            steps
      | Some (bad_seed, trail, _) ->
          failed := true;
          Format.printf "VIOLATION in %s (seed %d):@." s.Mc_scenario.name bad_seed;
          emit_counterexample ?mutant ~scenario:s ~out trail)
    scenarios;
  if !failed then 1 else 0

let mc_gauntlet traces_dir =
  (match traces_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  let all_ok = ref true in
  List.iter
    (fun (e : Mc_mutants.entry) ->
      let o = Mc_mutants.run_entry e in
      let ok = o.Mc_mutants.caught && o.Mc_mutants.deterministic in
      if not ok then all_ok := false;
      Format.printf "%-28s %s  witness %2d -> minimized %2d%s@." e.Mc_mutants.mutant
        (if o.Mc_mutants.caught then "CAUGHT" else "MISSED")
        (List.length e.Mc_mutants.witness)
        (List.length o.Mc_mutants.minimized)
        (if o.Mc_mutants.caught && not o.Mc_mutants.deterministic then "  NONDETERMINISTIC"
         else "");
      if o.Mc_mutants.caught then
        Option.iter
          (fun dir ->
            let path = Filename.concat dir ("mc_" ^ e.Mc_mutants.mutant ^ ".json") in
            Mc_trace.save path (Mc_mutants.trace_of o))
          traces_dir)
    Mc_mutants.all;
  if !all_ok then begin
    Printf.printf "gauntlet: all %d mutants caught with deterministic minimized traces\n"
      (List.length Mc_mutants.all);
    0
  end
  else begin
    Printf.eprintf "gauntlet: FAILED (a mutant escaped or a trace was nondeterministic)\n";
    1
  end

let mc_replay file =
  match Mc_trace.load file with
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      2
  | Ok t -> (
      Format.printf "replaying %s: scenario %s%s, %d actions@." file t.Mc_trace.scenario
        (match t.Mc_trace.mutant with Some m -> " under mutant " ^ m | None -> "")
        (List.length t.Mc_trace.trail);
      match Mc_trace.replay t with
      | Mc_trace.Reproduced ->
          print_endline "reproduced";
          0
      | Mc_trace.Failed reason ->
          Printf.eprintf "FAILED to reproduce: %s\n" reason;
          1)

let mc_cmd scenario mutant max_depth gauntlet swarm seeds steps seed replay traces_dir out =
  match replay with
  | Some file -> mc_replay file
  | None ->
      if gauntlet then mc_gauntlet traces_dir
      else begin
        match mc_scenarios_of scenario with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            2
        | Ok scenarios ->
            if swarm then mc_swarm ?mutant ~seeds ~steps ~seed ~out scenarios
            else mc_explore ?mutant ~max_depth ~out scenarios
      end

type trace_format = Text | Chrome | Jsonl

let trace_format_conv =
  let parse = function
    | "text" -> Ok Text
    | "chrome" -> Ok Chrome
    | "jsonl" -> Ok Jsonl
    | s -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with Text -> "text" | Chrome -> "chrome" | Jsonl -> "jsonl")
  in
  Cmdliner.Arg.conv (parse, print)

let trace_cmd topology seed format out =
  let n_procs = Net_scenario.min_procs topology in
  let config = Config.quick ~seed ~n_procs () in
  (* Structured exports need the span ring; the text dump keeps the
     seed behaviour (plain Trace buffer, telemetry off). *)
  let config =
    { config with Config.telemetry = (match format with Text -> false | Chrome | Jsonl -> true) }
  in
  let sim = Sim.create ~config () in
  Trace.set_enabled (Sim.trace sim) true;
  let cluster = Sim.cluster sim in
  let built =
    Net_scenario.build_topology (Net_scenario.make ~topology ~seed ~objects:0 ~edges:0 ()) cluster
  in
  (* Let the candidates age past the idle threshold. *)
  Sim.run_for sim 1_000;
  Sim.snapshot_all sim;
  let started = Sim.scan_all sim in
  ignore (Cluster.drain cluster : int);
  Sim.teardown sim;
  let emit contents =
    match out with
    | None -> print_string contents
    | Some path ->
        write_file path contents;
        Printf.printf "trace written to %s\n" path
  in
  (match format with
  | Chrome -> emit (Adgc_util.Json.to_string (Adgc_obs.Export.chrome_trace (Sim.obs sim)))
  | Jsonl -> emit (Adgc_obs.Export.jsonl (Sim.obs sim))
  | Text ->
      Format.printf "detections initiated by one scan: %d@." started;
      List.iter
        (fun (e : Trace.event) -> Format.printf "%a@." Trace.pp_event e)
        (Trace.by_topic (Sim.trace sim) "dcda");
      List.iter
        (fun (r : Adgc_dcda.Report.t) ->
          Format.printf "@.proven cycle (%d refs):@." (List.length r.Adgc_dcda.Report.proven);
          List.iter
            (fun key -> Format.printf "  %a@." (Names.pp_ref built.Topology.names) key)
            r.Adgc_dcda.Report.proven;
          Format.printf "%a@." Adgc_dcda.Report.pp_lineage r)
        (Sim.reports sim));
  0

(* ----------------------------------------------------------------- *)
(* serve/drive: the socket-backed multi-process driver.  [drive]
   spawns one [serve] process per rank (re-executing this binary),
   waits for the peer mesh, runs the same kernel duties off wall-clock
   timers, and judges the gathered final state with the same oracle
   invariants the in-memory drivers use. *)

module Coordinator = Adgc_net.Coordinator

let serve_cmd dir rank topology procs seed detector objects edges tick_us
    max_ticks =
  let scenario =
    Net_scenario.make ~topology ~procs ~seed ~detector ~objects ~edges ()
  in
  match Adgc_net.Node.main { Adgc_net.Node.rank; scenario; dir; tick_us; max_ticks } with
  | () -> 0
  | exception (Failure msg | Invalid_argument msg) ->
      Printf.eprintf "serve: %s\n" msg;
      1

let drive_cmd topology procs seed detector objects edges tick_us deadline dir
    keep_dir kill drop metrics_file spans_file quiet =
  let scenario =
    Net_scenario.make ~topology ~procs ~seed ~detector ~objects ~edges ()
  in
  let faults =
    (match kill with
    | Some (rank, after_s) -> [ Coordinator.Kill { rank; after_s } ]
    | None -> [])
    @
    match drop with
    | Some (rank, peer, after_s) -> [ Coordinator.Drop { rank; peer; after_s } ]
    | None -> []
  in
  let opts =
    Coordinator.options ?dir ~tick_us ~deadline_s:deadline ~faults
      ~spawn:(Coordinator.Exec [ Sys.executable_name; "serve" ])
      ~keep_dir scenario
  in
  match Coordinator.run opts with
  | result ->
      if not quiet then Format.printf "%a@." Coordinator.pp_result result;
      (match metrics_file with
      | None -> ()
      | Some path ->
          let meta =
            [
              ("driver", Adgc_util.Json.Str "net");
              ("topology", Adgc_util.Json.Str (Net_scenario.topology_to_string topology));
              ("procs", Adgc_util.Json.Int (Net_scenario.n_procs scenario));
              ("seed", Adgc_util.Json.Int seed);
              ("detector", Adgc_util.Json.Str (Net_scenario.detector_to_string detector));
              ("tick_us", Adgc_util.Json.Int tick_us);
              ("wall_s", Adgc_util.Json.Float result.Coordinator.wall_s);
              ("ok", Adgc_util.Json.Bool (Coordinator.ok result));
            ]
          in
          write_file path
            (Adgc_util.Json.to_string_pretty
               (Adgc_obs.Export.metrics_document ~meta result.Coordinator.stats));
          if not quiet then Printf.printf "metrics written to %s\n" path);
      (match spans_file with
      | None -> ()
      | Some path ->
          write_file path
            (Adgc_util.Json.to_string (Adgc_obs.Export.chrome_trace result.Coordinator.obs));
          if not quiet then Printf.printf "spans written to %s\n" path);
      if Coordinator.ok result then 0
      else begin
        Format.eprintf "NET RUN FAILED (logs in %s):@.%a@." result.Coordinator.dir
          Coordinator.pp_result result;
        1
      end
  | exception Failure msg ->
      Printf.eprintf "drive: %s\n" msg;
      1

open Cmdliner

let topology_arg =
  Arg.(
    value
    & opt topology_conv Net_scenario.Ring
    & info [ "topology"; "t" ]
        ~doc:"Topology: fig3, fig4, fig5, ring, hybrid, random, star, pairs, lattice, web or chain.")

(* Scale knobs default from the environment so CI matrix legs and the
   scale smoke job can sweep process/object counts without rewriting
   every command line. *)
let int_env var default =
  match Sys.getenv_opt var with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

let procs_arg =
  Arg.(
    value
    & opt int (int_env "ADGC_PROCS" 4)
    & info [ "procs"; "p" ] ~doc:"Number of processes (default from ADGC_PROCS, then 4).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")

let loss_arg = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Message drop probability.")

let detector_arg =
  Arg.(value & opt detector_conv Config.Dcda & info [ "detector"; "d" ] ~doc:"dcda or none.")

let time_arg = Arg.(value & opt int 100_000 & info [ "time" ] ~doc:"Simulated ticks to run.")

let churn_arg = Arg.(value & opt int 0 & info [ "churn" ] ~doc:"Random mutator actions to schedule.")

let objects_arg =
  Arg.(
    value
    & opt int (int_env "ADGC_OBJECTS" 100)
    & info [ "objects" ]
        ~doc:"Objects (random topology; default from ADGC_OBJECTS, then 100).")

let edges_arg = Arg.(value & opt int 200 & info [ "edges" ] ~doc:"Edges (random topology).")

let trace_arg =
  Arg.(value & opt_all string [] & info [ "trace" ] ~doc:"Print a trace topic (dcda, reflist, lgc, snapshot). Repeatable.")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only report problems.")

let crash_arg =
  Arg.(value & opt_all int [] & info [ "crash" ] ~doc:"Crash process $(docv) one third into the run. Repeatable." ~docv:"PROC")

let inspect_arg =
  Arg.(value & flag & info [ "inspect" ] ~doc:"Dump the full cluster state at the end.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:"Write the run's metrics (counters, histograms, series) as JSON to $(docv). Implies telemetry."
        ~docv:"FILE")

let spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ]
        ~doc:"Write the run's span timeline as Chrome trace_event JSON to $(docv). Implies telemetry."
        ~docv:"FILE")

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv Text
    & info [ "format"; "f" ]
        ~doc:"Output format: text (CDM trace + lineage), chrome (trace_event JSON for \
              about:tracing/Perfetto) or jsonl (one span per line)."
        ~docv:"FORMAT")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~doc:"Write the export to $(docv) instead of stdout." ~docv:"FILE")

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ]
        ~doc:
          "Fault-injection profile: loss-burst, duplicate, reorder, partition-heal or \
           crash-restart. Active over the middle of the run; the oracle reports any safety \
           violation."
        ~docv:"PROFILE")

let run_term =
  Term.(
    const run_cmd $ topology_arg $ procs_arg $ seed_arg $ loss_arg $ detector_arg
    $ time_arg $ churn_arg $ objects_arg $ edges_arg
    $ trace_arg $ crash_arg $ faults_arg $ metrics_arg $ spans_arg $ inspect_arg $ quiet_arg)

let run_cmd_info = Cmd.info "run" ~doc:"Run a scenario end to end and report."

let trace_term = Term.(const trace_cmd $ topology_arg $ seed_arg $ trace_format_arg $ out_arg)

let trace_cmd_info =
  Cmd.info "trace" ~doc:"Run one detection on a figure topology and print the CDM trace."

let mc_scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario"; "s" ]
        ~doc:"Restrict to one model-checking scenario (default: all of them)." ~docv:"NAME")

let mc_mutant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutant"; "m" ] ~doc:"Activate one Mc_mutate protocol variant." ~docv:"NAME")

let mc_depth_arg =
  Arg.(value & opt int 64 & info [ "max-depth" ] ~doc:"Exploration depth bound.")

let mc_gauntlet_arg =
  Arg.(
    value
    & flag
    & info [ "gauntlet" ]
        ~doc:"Run the mutation gauntlet: every mutant must be caught with a deterministic \
              minimized trace.")

let mc_swarm_arg =
  Arg.(
    value
    & flag
    & info [ "swarm" ] ~doc:"Randomized per-seed walks instead of exhaustive exploration.")

let mc_seeds_arg =
  Arg.(value & opt int 32 & info [ "seeds" ] ~doc:"Number of swarm walks.")

let mc_steps_arg =
  Arg.(value & opt int 40 & info [ "steps" ] ~doc:"Actions per swarm walk.")

let mc_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~doc:"Replay a counterexample trace file and verify it reproduces."
        ~docv:"FILE")

let mc_traces_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "traces-dir" ]
        ~doc:"Gauntlet: write each minimized counterexample as JSON into $(docv)."
        ~docv:"DIR")

let mc_term =
  Term.(
    const mc_cmd $ mc_scenario_arg $ mc_mutant_arg $ mc_depth_arg $ mc_gauntlet_arg
    $ mc_swarm_arg $ mc_seeds_arg $ mc_steps_arg $ seed_arg $ mc_replay_arg
    $ mc_traces_dir_arg $ out_arg)

let mc_cmd_info =
  Cmd.info "mc"
    ~doc:
      "Bounded model checking: exhaustively explore small-scope scenarios under every \
       interleaving of deliveries, drops and collector duties; replay minimized \
       counterexamples; run the mutation gauntlet."

(* serve / drive *)

let tick_us_arg =
  Arg.(
    value
    & opt int 100
    & info [ "tick-us" ] ~doc:"Wall microseconds per simulated tick." ~docv:"US")

let serve_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~doc:"Socket/log directory shared with the coordinator." ~docv:"DIR")

let serve_rank_arg =
  Arg.(required & opt (some int) None & info [ "rank" ] ~doc:"This node's process rank.")

let max_ticks_arg =
  Arg.(
    value
    & opt int 10_000_000
    & info [ "max-ticks" ] ~doc:"Refuse to simulate past this tick (safety stop).")

let serve_term =
  Term.(
    const serve_cmd $ serve_dir_arg $ serve_rank_arg $ topology_arg $ procs_arg $ seed_arg
    $ detector_arg $ objects_arg $ edges_arg $ tick_us_arg $ max_ticks_arg)

let serve_cmd_info =
  Cmd.info "serve"
    ~doc:
      "Run one node of the socket-backed driver (normally spawned by $(b,drive), not by \
       hand): build the scenario replica, join the peer mesh, and run this rank's \
       collector duties off wall-clock timers until the coordinator says shutdown."

let drive_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~doc:"Socket/log directory (default: a fresh temp dir)." ~docv:"DIR")

let keep_dir_arg =
  Arg.(value & flag & info [ "keep-dir" ] ~doc:"Keep the socket/log directory after a clean run.")

let deadline_arg =
  Arg.(
    value
    & opt float 60.0
    & info [ "deadline" ] ~doc:"Wall-clock seconds allowed after start." ~docv:"SECONDS")

let kill_arg =
  Arg.(
    value
    & opt (some (pair ~sep:'@' int float)) None
    & info [ "kill" ]
        ~doc:"Fault injection: SIGKILL rank $(i,R) $(i,S) seconds after start (R@S)."
        ~docv:"R@S")

let drop_arg =
  Arg.(
    value
    & opt (some (t3 ~sep:'@' int int float)) None
    & info [ "drop" ]
        ~doc:
          "Fault injection: tell rank $(i,A) to sever its link to rank $(i,B) $(i,S) \
           seconds after start (A@B@S); the link reconnects and replays."
        ~docv:"A@B@S")

let drive_term =
  Term.(
    const drive_cmd $ topology_arg $ procs_arg $ seed_arg $ detector_arg
    $ objects_arg $ edges_arg $ tick_us_arg $ deadline_arg
    $ drive_dir_arg $ keep_dir_arg $ kill_arg $ drop_arg $ metrics_arg $ spans_arg $ quiet_arg)

let drive_cmd_info =
  Cmd.info "drive"
    ~doc:
      "Run a scenario on real OS processes over Unix-domain sockets: spawn one node per \
       rank, wait for the peer mesh, collect until every expected-garbage object is \
       reclaimed, then gather state and run the oracle invariants over the union."

let main =
  Cmd.group
    (Cmd.info "adgc_sim" ~version:"1.0.0"
       ~doc:"Asynchronous complete distributed garbage collection simulator.")
    [
      Cmd.v run_cmd_info run_term;
      Cmd.v trace_cmd_info trace_term;
      Cmd.v mc_cmd_info mc_term;
      Cmd.v serve_cmd_info serve_term;
      Cmd.v drive_cmd_info drive_term;
    ]

let () = exit (Cmd.eval' main)
