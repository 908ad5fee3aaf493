(* End-to-end DGC benchmark: command line, the repetition runner, the
   report and the results document.

     e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
     e2e.exe --smoke --benchmark BENCHMARK.json
     e2e.exe --compare A.json B.json [--benchmark BENCHMARK.json]

   Every repetition is a child OS process (this executable again, with
   [--rep]), started one at a time with every [ADGC_*] variable removed
   from its environment, so each measures the shipped defaults with a
   fresh heap.  The last stdout line is one JSON object
   [{correct, attempted, failed, metrics}]. *)

module J = Adgc_util.Json

let rec member path j =
  match (path, j) with
  | [], j -> j
  | k :: rest, J.Obj fields -> (
      match List.assoc_opt k fields with Some v -> member rest v | None -> J.Null)
  | _ :: _, _ -> J.Null

let to_num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> nan

let num path j = to_num (member path j)

let to_int j = int_of_float (to_num j)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> ( match J.of_string s with Ok j -> Ok j | Error e -> Error (path ^ ": " ^ e))

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* {1 Repetitions} *)

type rep = { json : J.t; ok : bool }

let scrubbed_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 5 && String.sub kv 0 5 = "ADGC_"))
       (Array.to_list (Unix.environment ())))

let spawn_rep ~size ~(w : Workloads.t) ~seed ~mode ~trace_out =
  let exe = Sys.executable_name in
  let args =
    [
      exe;
      "--rep";
      Rep.mode_name mode;
      "--workload";
      w.Workloads.name;
      "--seed";
      string_of_int seed;
    ]
    @ (if size = Workloads.Smoke then [ "--smoke" ] else [])
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list args) (scrubbed_env ()) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let lines = In_channel.input_lines (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  let last = List.fold_left (fun _ l -> l) "" lines in
  match J.of_string last with
  | Ok json -> { json; ok = status = Unix.WEXITED 0 }
  | Error _ ->
      Printf.eprintf "e2e: %s %s repetition printed no result\n%!" w.Workloads.name
        (Rep.mode_name mode);
      { json = J.Null; ok = false }

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric ?(samples = []) name unit_ value = { name; unit_; value; samples }

let median = Samples.median

(* Distance between the quartiles as a share of the median. *)
let spread samples =
  match samples with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = median samples and q1, q3 = Samples.quartiles samples in
      if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let end_to_end timed =
  let js = List.map (fun r -> r.json) timed in
  let per_rep f = List.map f js in
  let med name unit_ f =
    let samples = per_rep f in
    metric ~samples name unit_ (median samples)
  in
  let per_swept key j = num [ key ] j /. Float.max 1.0 (num [ "swept" ] j) in
  let setups =
    List.concat_map
      (fun j -> match member [ "setup_s" ] j with J.Arr l -> List.map to_num l | _ -> [])
      js
  in
  [
    metric ~samples:setups "setup_s" "s" (median setups);
    med "reclaim_objs_per_s" "1/s" (fun j -> num [ "swept" ] j /. num [ "collect_s" ] j);
    med "reclaim_latency_ticks_p50" "ticks" (num [ "latency"; "p50" ]);
    med "reclaim_latency_ticks_p99" "ticks" (num [ "latency"; "p99" ]);
    med "msgs_per_reclaimed" "msgs" (per_swept "msgs");
    med "bytes_per_reclaimed" "bytes" (per_swept "bytes");
    med "peak_heap_mb" "MB" (num [ "peak_heap_mb" ]);
  ]

(* [timed] is the untraced repetition of the traced one's input. *)
let per_layer ~traced ~timed =
  let l = member [ "ledger" ] traced in
  let wall = num [ "wall_s" ] l in
  let layers =
    match member [ "layers" ] l with
    | J.Obj fields ->
        List.concat_map
          (fun (name, row) ->
            let self_s = num [ "self_s" ] row in
            [
              metric (name ^ ".calls") "count" (num [ "calls" ] row);
              metric (name ^ ".self_s") "s" self_s;
              metric (name ^ ".share_pct") "%" (100.0 *. self_s /. wall);
              metric (name ^ ".minor_words") "words" (num [ "minor_words" ] row);
            ])
          fields
    | _ -> []
  in
  let waits =
    match member [ "wait_ticks" ] l with
    | J.Obj fields ->
        List.concat_map
          (fun (kind, w) ->
            [
              metric ("dispatch." ^ kind ^ ".wait_ticks_p50") "ticks" (num [ "p50" ] w);
              metric ("dispatch." ^ kind ^ ".wait_ticks_p99") "ticks" (num [ "p99" ] w);
            ])
          fields
    | _ -> []
  in
  let counts =
    match member [ "counts" ] l with
    | J.Obj fields ->
        List.map
          (fun (k, v) ->
            let unit_ = if k = "net.bytes" || k = "snapshot.bytes" then "bytes" else "count" in
            metric k unit_ (to_num v))
          fields
    | _ -> []
  in
  let started = num [ "counts"; "dcda.detections_started" ] l in
  layers @ waits @ counts
  @ [
      metric "dcda.useful_ratio" "ratio"
        (if started > 0.0 then num [ "counts"; "dcda.cycles_found" ] l /. started else 0.0);
      metric "mutator.us_p50" "us" (num [ "mutator_us"; "p50" ] l);
      metric "mutator.us_p99" "us" (num [ "mutator_us"; "p99" ] l);
      metric "trace_overhead_pct" "%"
        (100.0 *. ((num [ "poll_s" ] traced /. num [ "poll_s" ] timed) -. 1.0));
      (* No sample lies beyond a maximum, so it is reported here, from
         the traced input, rather than gated end to end. *)
      metric "reclaim_latency_ticks_max" "ticks" (num [ "latency"; "max" ] traced);
    ]

(* {1 Running one workload} *)

type outcome = {
  workload : string;
  census : (string * J.t) list;
  trace : (string * J.t) list;
  e2e : metric list;
  layers : metric list;
  faithful : bool option;
  correct : bool;
  attempted : int;
  failed : int;
}

type plan = {
  size : Workloads.size;
  seed : int;
  reps : int;  (** timed repetitions; 0 = traced pass only *)
  traced : bool;
  trace_dir : string;
}

(* Repetition [r] of a run builds its own input, from a seed derived
   from the run's: a run's medians then cover [reps] inputs as well as
   [reps] measurements, and the same [--seed] still means the same
   inputs. *)
let input_seed plan r = (plan.seed * 1000) + r

let failures j =
  to_int (member [ "garbage_left" ] j)
  + to_int (member [ "live_swept" ] j)
  + to_int (member [ "violations" ] j)

let run_workload plan (w : Workloads.t) =
  let spawn r mode trace_out =
    spawn_rep ~size:plan.size ~w ~seed:(input_seed plan r) ~mode ~trace_out
  in
  (* The traced pass compares against a timed repetition of its input. *)
  let timed =
    List.init (Int.max plan.reps (if plan.traced then 1 else 0)) (fun r -> spawn r Rep.Timed None)
  in
  let timed_ok = List.for_all (fun r -> r.ok) timed in
  let traced =
    if plan.traced && timed_ok then
      let path = Filename.concat plan.trace_dir (w.Workloads.name ^ ".trace.json") in
      Some (spawn 0 Rep.Traced (Some path))
    else None
  in
  let first = (List.hd timed).json in
  let faithful =
    Option.map (fun t -> t.ok && member [ "counters" ] t.json = member [ "counters" ] first) traced
  in
  let all = timed @ Option.to_list traced in
  let sum f = List.fold_left (fun a r -> a + f r.json) 0 all in
  let attempted = sum (fun j -> to_int (member [ "garbage_start" ] j)) in
  let failed = sum failures in
  let e2e = if timed_ok && plan.reps > 0 then end_to_end timed else [] in
  let layers, trace =
    match traced with
    | Some t when t.ok ->
        let l = member [ "ledger" ] t.json in
        ( per_layer ~traced:t.json ~timed:first,
          List.map
            (fun k -> (k, member [ k ] l))
            [ "wall_s"; "unattributed_s"; "spans"; "dropped" ] )
    | Some _ | None -> ([], [])
  in
  let per_rep path = J.Arr (List.map (fun r -> member path r.json) timed) in
  let census =
    [
      ("procs", member [ "procs" ] first);
      ("seed", J.Int plan.seed);
      ("reps", J.Int (List.length timed));
      ("input_seeds", J.Arr (List.mapi (fun r _ -> J.Int (input_seed plan r)) timed));
      ("objects", per_rep [ "objects" ]);
      ("garbage_start", per_rep [ "garbage_start" ]);
      ("latency_samples", per_rep [ "latency"; "n" ]);
      ("failed_frac", J.of_float (float_of_int failed /. float_of_int (Int.max 1 attempted)));
    ]
    @ match faithful with Some f -> [ ("trace_faithful", J.Bool f) ] | None -> []
  in
  {
    workload = w.Workloads.name;
    census;
    trace;
    e2e;
    layers;
    faithful;
    correct = List.for_all (fun r -> r.ok) all && failed = 0 && faithful <> Some false;
    attempted;
    failed;
  }

(* {1 Report} *)

let report buf o =
  Printf.bprintf buf "\n== %s ==\n" o.workload;
  List.iter (fun (k, v) -> Printf.bprintf buf "  %s = %s\n" k (J.to_string v)) o.census;
  if o.e2e <> [] then begin
    Printf.bprintf buf "end to end (median of the timed repetitions):\n";
    List.iter
      (fun m ->
        Printf.bprintf buf "  %-28s %14.6g %-6s (n=%d, quartile spread %.1f%%)\n" m.name m.value
          m.unit_ (List.length m.samples)
          (100.0 *. spread m.samples))
      o.e2e
  end;
  if o.layers <> [] then begin
    let v name = (List.find (fun m -> m.name = name) o.layers).value in
    let shares =
      List.filter_map
        (fun m ->
          match String.split_on_char '.' m.name |> List.rev with
          | "share_pct" :: rest -> Some (String.concat "." (List.rev rest), m.value)
          | _ -> None)
        o.layers
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    let t k = to_num (List.assoc k o.trace) in
    Printf.bprintf buf
      "per layer (traced run; self time excludes timed children): wall %.3f s, %.3f%% outside \
       every span, %.0f spans (%.0f dropped from the trace file)\n"
      (t "wall_s") (100.0 *. t "unattributed_s" /. t "wall_s") (t "spans") (t "dropped");
    Printf.bprintf buf "  %-30s %9s %10s %7s %14s\n" "layer" "calls" "self_s" "share" "minor_words";
    List.iter
      (fun (layer, share) ->
        Printf.bprintf buf "  %-30s %9.0f %10.4f %6.2f%% %14.0f\n" layer (v (layer ^ ".calls"))
          (v (layer ^ ".self_s")) share (v (layer ^ ".minor_words")))
      shares;
    Printf.bprintf buf "  top three by share_pct: %s\n"
      (String.concat ", "
         (List.filteri (fun i _ -> i < 3) shares
         |> List.map (fun (l, s) -> Printf.sprintf "%s %.1f%%" l s)));
    Printf.bprintf buf "  dcda.useful_ratio = %.4f (%.0f cycles found / %.0f detections started)\n"
      (v "dcda.useful_ratio") (v "dcda.cycles_found") (v "dcda.detections_started");
    Printf.bprintf buf "per-layer metrics:\n";
    List.iter (fun m -> Printf.bprintf buf "  %s %.6g %s\n" m.name m.value m.unit_) o.layers
  end;
  (match o.faithful with
  | Some f ->
      Printf.bprintf buf "trace_faithful=%b\n" f;
      if not f then
        Printf.bprintf buf
          "!! the traced replica diverged from Sim.start: per-layer numbers are not trustworthy\n"
  | None -> ());
  Printf.bprintf buf "failed_frac = %g (%d of %d)\n"
    (float_of_int o.failed /. float_of_int (Int.max 1 o.attempted))
    o.failed o.attempted

let value_json m = [ ("value", J.of_float m.value); ("unit", J.Str m.unit_) ]

let metric_json m =
  J.Obj
    (value_json m
    @ if m.samples = [] then [] else [ ("samples", J.Arr (List.map J.of_float m.samples)) ])

let rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let args = [| "git"; "--git-dir=.git"; "rev-parse"; "--short"; "HEAD" |] in
    match Unix.open_process_args_in "git" args with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let line = In_channel.input_line ic in
        ignore (Unix.close_process_in ic : Unix.process_status);
        Option.value line ~default:"unknown"

let document plan outcomes =
  J.Obj
    [
      ("schema", J.Str "adgc-e2e/1");
      ("rev", J.Str (rev ()));
      ( "host",
        J.Obj
          [
            ("cores", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
          ] );
      ("seed", J.Int plan.seed);
      ("size", J.Str (match plan.size with Workloads.Full -> "full" | Smoke -> "smoke"));
      ( "workloads",
        J.Obj
          (List.map
             (fun o ->
               ( o.workload,
                 J.Obj
                   [
                     ("census", J.Obj o.census);
                     ("trace", J.Obj o.trace);
                     ("end_to_end", J.Obj (List.map (fun m -> (m.name, metric_json m)) o.e2e));
                     ("per_layer", J.Obj (List.map (fun m -> (m.name, metric_json m)) o.layers));
                   ] ))
             outcomes) );
    ]

let result_line outcomes =
  let prefix o m = if List.length outcomes > 1 then o.workload ^ "." ^ m.name else m.name in
  J.Obj
    [
      ("correct", J.Bool (List.for_all (fun o -> o.correct) outcomes));
      ("attempted", J.Int (List.fold_left (fun a o -> a + o.attempted) 0 outcomes));
      ("failed", J.Int (List.fold_left (fun a o -> a + o.failed) 0 outcomes));
      ( "metrics",
        J.Obj
          (List.concat_map
             (fun o ->
               List.map
                 (fun m -> (prefix o m, J.Obj (value_json m)))
                 (o.e2e @ o.layers))
             outcomes) );
    ]

(* {1 BENCHMARK.json: metric specs for the smoke check and compare} *)

type spec = { s_name : string; s_unit : string; higher : bool; bound : float }

let specs bench key =
  match member [ key ] bench with
  | J.Arr l ->
      List.map
        (fun m ->
          {
            s_name = (match member [ "name" ] m with J.Str s -> s | _ -> "");
            s_unit = (match member [ "unit" ] m with J.Str s -> s | _ -> "");
            higher = member [ "better" ] m = J.Str "higher";
            bound = (match member [ "bound" ] m with J.Null -> nan | b -> to_num b);
          })
        l
  | _ -> []

(* Smoke assertions: every workload's report prints every metric
   BENCHMARK.json names, as a [name value unit] line with the unit
   BENCHMARK.json gives; nothing failed; the traced replica stayed
   faithful. *)
let smoke_check bench outcomes =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun o ->
      let buf = Buffer.create 4096 in
      report buf o;
      let printed =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
      in
      let prints s = function
        | n :: v :: u :: _ -> n = s.s_name && Float.of_string_opt v <> None && u = s.s_unit
        | _ -> false
      in
      List.iter
        (fun s ->
          if not (List.exists (prints s) printed) then
            fail "%s: no line prints %s in %s" o.workload s.s_name s.s_unit)
        (specs bench "end_to_end" @ specs bench "per_layer");
      if o.failed <> 0 then
        fail "%s: failed_frac is not 0 (%d of %d)" o.workload o.failed o.attempted;
      if o.faithful <> Some true then fail "%s: trace_faithful is not true" o.workload;
      if not o.correct then fail "%s: not correct" o.workload)
    outcomes;
  List.iter
    (fun w -> if not (List.exists (fun o -> o.workload = w) outcomes) then fail "%s: not run" w)
    Workloads.names;
  List.rev !problems

(* {1 Compare} *)

(* One row per (workload, end-to-end metric): the relative change of B
   against A, judged against the metric's bound in its better
   direction.  Samples that reproduce exactly (a seed-determined metric
   at the same seed and code) are unchanged.  Otherwise a spread wider
   than the bound in either document makes the row unresolved, unless
   every sample of B beats every sample of A. *)
let compare_docs bench a b =
  let rows = ref [] and worse = ref 0 in
  let workloads = match member [ "workloads" ] a with J.Obj f -> List.map fst f | _ -> [] in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let get doc = member [ "workloads"; w; "end_to_end"; s.s_name ] doc in
          let ma = get a and mb = get b in
          let samples m =
            match member [ "samples" ] m with J.Arr l -> List.map to_num l | _ -> []
          in
          let va = num [ "value" ] ma and vb = num [ "value" ] mb in
          let rel = (vb -. va) /. Float.abs va in
          let gain = if s.higher then rel else -.rel in
          let better x y = if s.higher then x > y else x < y in
          let sa = samples ma and sb = samples mb in
          let all_better =
            sa <> [] && sb <> [] && List.for_all (fun y -> List.for_all (fun x -> better y x) sa) sb
          in
          let verdict =
            if Float.is_nan va || Float.is_nan vb then "unresolved"
            else if sa <> [] && sa = sb then "unchanged"
            else if all_better && gain > s.bound then "improved"
            else if spread sa > s.bound || spread sb > s.bound then "unresolved"
            else if gain > s.bound then "improved"
            else if gain < -.s.bound then "worse"
            else "unchanged"
          in
          if verdict = "worse" then incr worse;
          rows :=
            [
              w;
              s.s_name;
              Printf.sprintf "%.6g" va;
              Printf.sprintf "%.6g" vb;
              Printf.sprintf "%+.2f%%" (100.0 *. rel);
              Printf.sprintf "%.0f%%" (100.0 *. s.bound);
              verdict;
            ]
            :: !rows)
        (specs bench "end_to_end"))
    workloads;
  Adgc_util.Table.print
    ~header:[ "workload"; "metric"; "A"; "B"; "change"; "bound"; "verdict" ]
    ~rows:(List.rev !rows) ();
  !worse

(* {1 Command line} *)

(* Wall time of one full-size timed repetition on the reference host
   (2-core x86-64 VM): [--seconds S] buys [max 3 (S / rep_seconds)]
   repetitions.  The count is computed, not timed, so that a seed fixes
   the inputs of a run whatever the host's speed. *)
let rep_seconds = 3.0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref (-1) in
  let rep = ref "" and trace_out = ref "" and smoke = ref false in
  let out = ref "" and bench_path = ref "BENCHMARK.json" and compare = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  run one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed budget per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  only the timed (0) or only the traced (1) pass");
      ( "--out",
        Arg.Set_string out,
        "FILE  results document (default bench/results/e2e/latest.json)" );
      ("--smoke", Arg.Set smoke, " tiny sizes, one repetition each, assert the metric contract");
      ( "--benchmark",
        Arg.Set_string bench_path,
        "FILE  BENCHMARK.json (for --smoke and --compare)" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> compare := [ a ]);
            Arg.String (fun b -> compare := !compare @ [ b ]);
          ],
        "A.json B.json  compare two results documents against the bounds" );
      ("--rep", Arg.Set_string rep, "timed|traced  (internal) run one repetition");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE  (internal) Chrome trace of a traced repetition" );
    ]
  in
  let usage =
    "e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] | --compare A B | --smoke"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let size = if !smoke then Workloads.Smoke else Workloads.Full in
  let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt in
  let load path = match read_json path with Ok j -> j | Error e -> die "%s" e in
  if !rep <> "" then begin
    let mode =
      match !rep with "timed" -> Rep.Timed | "traced" -> Rep.Traced | m -> die "bad --rep %s" m
    in
    match Workloads.find size !workload with
    | Some w ->
        Rep.main w ~seed:!seed ~mode ~trace_out:(if !trace_out = "" then None else Some !trace_out)
    | None -> die "unknown workload %s" !workload
  end
  else if !compare <> [] then begin
    match !compare with
    | [ a; b ] ->
        let worse = compare_docs (load !bench_path) (load a) (load b) in
        exit (if worse > 0 then 1 else 0)
    | _ -> die "--compare takes two files"
  end
  else begin
    let workloads =
      if !workload = "" then Workloads.all size
      else
        match Workloads.find size !workload with
        | Some w -> [ w ]
        | None ->
            die "unknown workload %s (one of %s)" !workload (String.concat ", " Workloads.names)
    in
    let timed_reps =
      if !smoke then 1 else Int.max 3 (int_of_float (!seconds /. rep_seconds))
    in
    let reps, traced =
      match !trace with
      | -1 -> (timed_reps, true)
      | 0 -> (timed_reps, false)
      | 1 -> (0, true)
      | t -> die "--trace takes 0 or 1, not %d" t
    in
    let plan = { size; seed = !seed; reps; traced; trace_dir = "bench/results/e2e" } in
    let bench = if !smoke then Some (load !bench_path) else None in
    mkdir_p plan.trace_dir;
    let outcomes =
      List.map
        (fun w ->
          let o = run_workload plan w in
          if not !smoke then begin
            let buf = Buffer.create 4096 in
            report buf o;
            print_string (Buffer.contents buf);
            flush stdout
          end;
          o)
        workloads
    in
    let doc = document plan outcomes in
    let path = if !out = "" then Filename.concat plan.trace_dir "latest.json" else !out in
    write_file path (J.to_string_pretty doc);
    Printf.printf "results document: %s\n" path;
    match bench with
    | Some bench ->
        let problems = smoke_check bench outcomes in
        List.iter (fun p -> Printf.printf "smoke: %s\n" p) problems;
        if problems = [] then
          Printf.printf "smoke: ok (%d workloads; every metric printed; traces faithful)\n"
            (List.length outcomes);
        exit (if problems = [] then 0 else 1)
    | None ->
        print_endline (J.to_string (result_line outcomes));
        exit (if List.for_all (fun o -> o.correct) outcomes then 0 else 1)
  end
