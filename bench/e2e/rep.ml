(* One repetition of one workload, in its own OS process: set up, collect
   until no garbage is left, check, measure.

   A [Timed] repetition runs the program as shipped — [Sim.start] and
   [Sim.run_until_clean] under [Config.quick] — and only the
   benchmark's pre-sweep hook watches it.  A [Traced] repetition drives
   the very same schedule through a replica (below) so that every call
   into a layer's public entry point can be wrapped in a ledger span. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Kernel = Adgc.Kernel
module Cluster = Adgc_rt.Cluster
module Runtime = Adgc_rt.Runtime
module Network = Adgc_rt.Network
module Scheduler = Adgc_rt.Scheduler
module Process = Adgc_rt.Process
module Heap = Adgc_rt.Heap
module Msg = Adgc_rt.Msg
module Churn = Adgc_workload.Churn
module Stats = Adgc_util.Stats
module Rng = Adgc_util.Rng
module Oid = Adgc_algebra.Oid
module Policy = Adgc_dcda.Policy
module J = Adgc_util.Json

type mode = Timed | Traced

let mode_name = function Timed -> "timed" | Traced -> "traced"

(* Poll step of the clean check: [Sim.run_until_clean]'s default, which
   the traced replica must match tick for tick. *)
let poll_step = 1_000

(* A run that has not reclaimed everything this many ticks after
   collection started counts its leftover garbage as failed. *)
let tick_budget = 400_000

(* The dispatch kinds the default configuration can put on the wire;
   each is a ledger layer of its own. *)
let dispatch_kinds =
  [
    "cdm";
    "new_set_stubs";
    "rmi_request";
    "rmi_reply";
    "export_notice";
    "export_ack";
    "scion_probe";
    "cdm_delete";
    "batch";
  ]

type built = {
  sim : Sim.t;
  churn : Churn.t option;
  census : unit Oid.Tbl.t;  (** garbage at the end of set-up *)
}

let setup (w : Workloads.t) ~seed =
  let config = Config.quick ~seed ~n_procs:w.Workloads.procs () in
  config.Config.net.Network.account_bytes <- true;
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let master = Rng.create seed in
  let build_rng = Rng.split master in
  let churn_rng = Rng.split master in
  w.Workloads.build cluster build_rng;
  let census = Oid.Tbl.create 1024 in
  Oid.Set.iter (fun oid -> Oid.Tbl.replace census oid ()) (Cluster.garbage cluster);
  let churn =
    Option.map (fun _ -> Churn.create ~cluster ~rng:churn_rng ()) w.Workloads.churn
  in
  { sim; churn; census }

(* What the pre-sweep hook sees. *)
type sweeps = {
  latency : Samples.t;
  mutable live_swept : int;
  mutable last_wall : float;
  mutable msgs : int;  (** [net.msg.sent] when the last sweep ran *)
  mutable bytes : int;
}

(* Traced-only state. *)
type tracing = {
  ledger : Ledger.t;
  l_sched : int;
  l_oracle : int;
  l_check : int;
  l_mutator : int;
  dispatch : (string, int * Samples.t) Hashtbl.t;  (** kind -> layer, time in flight *)
  mutator_us : Samples.t;
}

let dispatch_layer tr kind =
  match Hashtbl.find_opt tr.dispatch kind with
  | Some v -> v
  | None ->
      let v = (Ledger.layer tr.ledger ("dispatch." ^ kind), Samples.create ()) in
      Hashtbl.replace tr.dispatch kind v;
      v

let tracing () =
  let ledger = Ledger.create () in
  let layer = Ledger.layer ledger in
  let tr =
    {
      ledger;
      l_sched = layer "sched.run_for";
      l_oracle = layer "oracle.garbage_count";
      l_check = layer "check.pre_sweep";
      l_mutator = layer "mutator";
      dispatch = Hashtbl.create 16;
      mutator_us = Samples.create ();
    }
  in
  List.iter (fun k -> ignore (dispatch_layer tr k : int * Samples.t)) dispatch_kinds;
  List.iter
    (fun l -> ignore (layer l : int))
    [ "snapshot"; "lgc"; "reflist"; "detector"; "candidates" ];
  tr

(* Every object of the set-up census is garbage that collection must
   reclaim; its latency runs from the tick collection started to its
   sweep.  On a static heap nothing else can be swept, so any other
   doomed object is a live one; under the mutator, objects that became
   garbage later are swept too, and safety is judged by the invariant
   check at the end (timed) or by ground truth at every sweep
   (traced). *)
let install_sweep_hook b ~tr =
  let sim = b.sim in
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let stats = Sim.stats sim in
  let origin = Sim.now sim in
  let s =
    {
      latency = Samples.create ();
      live_swept = 0;
      last_wall = Unix.gettimeofday ();
      msgs = 0;
      bytes = 0;
    }
  in
  let previous = rt.Runtime.on_pre_sweep in
  rt.Runtime.on_pre_sweep <-
    Some
      (fun pid doomed ->
        (match previous with Some f -> f pid doomed | None -> ());
        let lat = float_of_int (Sim.now sim - origin) in
        List.iter
          (fun oid ->
            if Oid.Tbl.mem b.census oid then Samples.add s.latency lat
            else if Option.is_none b.churn then s.live_swept <- s.live_swept + 1)
          doomed;
        (match tr with
        | Some tr ->
            let live =
              Ledger.span tr.ledger tr.l_check (fun () -> Cluster.live_among cluster doomed)
            in
            s.live_swept <- s.live_swept + List.length live
        | None -> ());
        s.last_wall <- Unix.gettimeofday ();
        s.msgs <- Stats.get stats "net.msg.sent";
        s.bytes <- Stats.get stats "net.bytes");
  s

(* The traced replica of [Sim.start]: the duties are reachable from
   outside only through their lanes, so install the same five lanes in
   the same order, with the same periods and [1 + i*period/n] phases —
   [Cluster.start_gc]'s LGC and stub-set lanes, then [Sim.start]'s
   snapshot, scan and audit lanes — with every lane body wrapped in
   its layer's span. *)
let install_lanes tr sim =
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let cfg = rt.Runtime.config in
  let policy = (Sim.config sim).Config.policy in
  let ctx = Sim.kernel_ctx sim in
  let n = Cluster.n_procs cluster in
  let layer = Ledger.layer tr.ledger in
  let lane period name body =
    let l = layer name in
    Scheduler.lane (Cluster.sched cluster) ~n
      ~phase_of:(fun i -> 1 + (i * period / Int.max 1 n))
      ~period
      (fun i ->
        let p = Cluster.proc cluster i in
        if p.Process.alive then Ledger.span tr.ledger l (fun () -> body i p))
  in
  [
    lane cfg.Runtime.lgc_period "lgc" (fun _ p ->
        ignore (Adgc_rt.Lgc.run rt p : Adgc_rt.Lgc.report));
    lane cfg.Runtime.new_set_period "reflist" (fun _ p ->
        Adgc_rt.Reflist.send_new_sets rt p;
        Adgc_rt.Reflist.probe_idle_scions rt p ~threshold:(3 * cfg.Runtime.new_set_period);
        Adgc_rt.Reflist.reap_dead_holders rt p);
    lane policy.Policy.snapshot_period "snapshot" (fun i _ ->
        Kernel.run_duty ctx (Kernel.Snapshot i));
    lane policy.Policy.scan_period "detector" (fun i _ -> Kernel.run_duty ctx (Kernel.Scan i));
    lane policy.Policy.candidate_audit_period "candidates" (fun i _ ->
        Kernel.run_duty ctx (Kernel.Maintain_candidates i));
  ]

(* The traced copy of [Sim.run_until_clean]: same poll step, same
   staleness skip (built from the public [Heap.reclaim_mutations],
   [Stats] and [Cluster.ref_carrying_kinds]), so it polls on exactly
   the ticks the original does — but the ground-truth count and each
   [run_for] get their own spans. *)
let reach_signature sim =
  let stats = Sim.stats sim in
  let acc = ref 0 in
  Array.iter
    (fun p -> acc := !acc + Heap.reclaim_mutations p.Process.heap)
    (Sim.rt sim).Runtime.procs;
  acc := !acc + Stats.get stats "cluster.crashes" + Stats.get stats "cluster.restarts";
  List.iter
    (fun kind ->
      List.iter
        (fun ev -> acc := !acc + Stats.get stats ("net.msg." ^ ev ^ "." ^ kind))
        [ "sent"; "delivered"; "dropped" ])
    Cluster.ref_carrying_kinds;
  !acc

let traced_until_clean tr sim ~max_time =
  let last_sig = ref (-1) and last_count = ref max_int in
  let garbage () =
    Ledger.span tr.ledger tr.l_oracle (fun () ->
        let s = reach_signature sim in
        if s <> !last_sig then begin
          last_sig := s;
          last_count := Cluster.garbage_count (Sim.cluster sim)
        end;
        !last_count)
  in
  let rec go () =
    if garbage () = 0 then true
    else if Sim.now sim >= max_time then false
    else begin
      Ledger.span tr.ledger tr.l_sched (fun () -> Sim.run_for sim poll_step);
      go ()
    end
  in
  go ()

type result = {
  collect_s : float;  (** collection start to the last sweep *)
  poll_s : float;  (** collection start to the clean poll's return *)
  clean : bool;
  objects : int;
  garbage_start : int;
  garbage_left : int;
  live_swept : int;
  violations : int;
  swept : int;
  latency : float array;  (** sorted *)
  msgs : int;
  bytes : int;
  final_tick : int;
  peak_heap_words : int;
  stats : Stats.t;
}

let collect (w : Workloads.t) b ~tr =
  let sim = b.sim in
  let cluster = Sim.cluster sim in
  let sched = Cluster.sched cluster in
  (match tr with
  | Some tr ->
      let rt = Sim.rt sim in
      Network.set_deliver (Sim.net sim) (fun msg ->
          let layer, wait = dispatch_layer tr (Msg.kind msg.Msg.payload) in
          Samples.add wait (float_of_int (Scheduler.now sched - msg.Msg.sent_at));
          Ledger.span tr.ledger layer (fun () -> Adgc_rt.Dispatch.deliver rt msg))
  | None -> ());
  let run_for ticks =
    match tr with
    | Some tr -> Ledger.span tr.ledger tr.l_sched (fun () -> Sim.run_for sim ticks)
    | None -> Sim.run_for sim ticks
  in
  let objects = Cluster.total_objects cluster in
  let s = install_sweep_hook b ~tr in
  let t_start = Unix.gettimeofday () in
  let lanes = match tr with Some tr -> install_lanes tr sim | None -> (Sim.start sim; []) in
  (match (w.Workloads.churn, b.churn) with
  | Some (steps, every), Some churn ->
      (* Open loop in simulated time: step [k] is due at tick [k * every]
         whatever the collector is doing. *)
      let step () =
        match tr with
        | None -> Churn.step churn
        | Some tr ->
            Ledger.span tr.ledger tr.l_mutator (fun () ->
                let t0 = Unix.gettimeofday () in
                Churn.step churn;
                Samples.add tr.mutator_us ((Unix.gettimeofday () -. t0) *. 1e6))
      in
      for k = 1 to steps do
        Scheduler.schedule_after sched ~delay:(k * every) step
      done;
      run_for (steps * every)
  | _ -> ());
  let max_time = Sim.now sim + tick_budget in
  let clean =
    match tr with
    | Some tr -> traced_until_clean tr sim ~max_time
    | None -> Sim.run_until_clean ~max_time sim
  in
  let t_end = Unix.gettimeofday () in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  List.iter Scheduler.cancel_lane lanes;
  let garbage_left = if clean then 0 else Cluster.garbage_count cluster in
  (* A timed mutator run proves safety after the fact: a swept live
     object leaves a dangling reference behind. *)
  let violations =
    match (tr, b.churn) with
    | None, Some _ -> List.length (Adgc_check.Invariant.check cluster)
    | _ -> 0
  in
  let stats = Sim.stats sim in
  Sim.teardown sim;
  {
    collect_s = s.last_wall -. t_start;
    poll_s = t_end -. t_start;
    clean;
    objects;
    garbage_start = Oid.Tbl.length b.census;
    garbage_left;
    live_swept = s.live_swept;
    violations;
    swept = Stats.get stats "lgc.swept";
    latency = Samples.sorted s.latency;
    msgs = s.msgs;
    bytes = s.bytes;
    final_tick = Sim.now sim;
    peak_heap_words;
    stats;
  }

(* {1 The result line a repetition prints} *)

let num f = J.Float f

let int i = J.Int i

(* Deterministic protocol counters the faithfulness guard compares
   between a traced and a timed repetition of the same seed. *)
let protocol_counters r =
  let sent =
    List.filter
      (fun (k, _) -> String.length k > 13 && String.sub k 0 13 = "net.msg.sent.")
      (Stats.counters r.stats)
  in
  let pick k = (k, Stats.get r.stats k) in
  sent
  @ [
      pick "lgc.swept";
      pick "dcda.cycles_found";
      ("final_tick", r.final_tick);
      ("latency.p50", int_of_float (Samples.rank r.latency 50.0));
      ("latency.p99", int_of_float (Samples.rank r.latency 99.0));
      ("latency.max", int_of_float (Samples.rank r.latency 100.0));
    ]

let p50_p99 samples =
  let sorted = Samples.sorted samples in
  J.Obj [ ("p50", num (Samples.rank sorted 50.0)); ("p99", num (Samples.rank sorted 99.0)) ]

let ledger_json tr r ~wall =
  let rows = Ledger.rows tr.ledger in
  let attributed =
    List.fold_left (fun acc (row : Ledger.row) -> acc +. row.Ledger.self_s) 0.0 rows
  in
  let layers =
    List.map
      (fun (row : Ledger.row) ->
        ( row.Ledger.name,
          J.Obj
            [
              ("calls", int row.Ledger.calls);
              ("self_s", num row.Ledger.self_s);
              ("minor_words", num row.Ledger.minor_words);
            ] ))
      rows
  in
  let wait =
    Hashtbl.fold
      (fun kind (_, samples) acc ->
        (kind, p50_p99 samples) :: acc)
      tr.dispatch []
  in
  let get k = Stats.get r.stats k in
  let extras =
    [
      ("snapshot.bytes", get "snapshot.bytes");
      ("lgc.swept", get "lgc.swept");
      ("reflist.sets_sent", get "reflist.sets_sent");
      ("dcda.detections_started", get "dcda.detections_started");
      ("dcda.cycles_found", get "dcda.cycles_found");
      ("net.bytes", get "net.bytes");
    ]
    @ List.map (fun k -> ("net.msgs." ^ k, get ("net.msg.sent." ^ k))) dispatch_kinds
  in
  J.Obj
    [
      ("wall_s", num wall);
      ("unattributed_s", num (wall -. attributed));
      ("spans", int (Ledger.spans tr.ledger));
      ("dropped", int (Ledger.dropped tr.ledger));
      ("layers", J.obj_sorted layers);
      ("wait_ticks", J.obj_sorted wait);
      ("mutator_us", p50_p99 tr.mutator_us);
      ("counts", J.obj_sorted (List.map (fun (k, v) -> (k, int v)) extras));
    ]

let to_json (w : Workloads.t) ~seed ~mode ~setup_s r ~tr =
  let lat p = num (Samples.rank r.latency p) in
  J.Obj
    ([
       ("workload", J.Str w.Workloads.name);
       ("mode", J.Str (mode_name mode));
       ("seed", int seed);
       ("procs", int w.Workloads.procs);
       ("objects", int r.objects);
       ("garbage_start", int r.garbage_start);
       ("setup_s", J.Arr (List.map num setup_s));
       ("collect_s", num r.collect_s);
       ("poll_s", num r.poll_s);
       ("clean", J.Bool r.clean);
       ("garbage_left", int r.garbage_left);
       ("live_swept", int r.live_swept);
       ("violations", int r.violations);
       ("swept", int r.swept);
       ( "latency",
         J.Obj
           [
             ("n", int (Array.length r.latency));
             ("p50", lat 50.0);
             ("p99", lat 99.0);
             ("max", lat 100.0);
           ] );
       ("msgs", int r.msgs);
       ("bytes", int r.bytes);
       ("final_tick", int r.final_tick);
       ("peak_heap_mb", num (float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1048576.0));
       ("counters", J.Obj (List.map (fun (k, v) -> (k, int v)) (protocol_counters r)));
     ]
    @ match tr with Some tr -> [ ("ledger", ledger_json tr r ~wall:r.poll_s) ] | None -> [])

(* Set-up is timed this many times per repetition, after collection.
   The first set-up of a fresh process also pays for page faults and
   heap growth, and on a shared host that cost follows the host's
   memory state more than the program; the later ones measure the
   set-up work itself. *)
let setup_reps = 3

(* Run one repetition and print its result as the last stdout line. *)
let main (w : Workloads.t) ~seed ~mode ~trace_out =
  let b = setup w ~seed in
  let tr = match mode with Traced -> Some (tracing ()) | Timed -> None in
  let r = collect w b ~tr in
  let setup_s =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (setup w ~seed : built);
        Unix.gettimeofday () -. t0)
  in
  (match (tr, trace_out) with
  | Some tr, Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (J.to_string (Ledger.chrome_json tr.ledger)))
  | _ -> ());
  print_endline (J.to_string (to_json w ~seed ~mode ~setup_s r ~tr));
  let ok = r.clean && r.garbage_left = 0 && r.live_swept = 0 && r.violations = 0 in
  exit (if ok then 0 else 1)
