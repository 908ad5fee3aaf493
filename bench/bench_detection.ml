(* Detection section (new in the perf harness): end-to-end
   cycle-reclamation latency, in simulated ticks, with percentiles
   drawn from the histograms the detector feeds under telemetry
   (dcda.detection_latency: initiation tick to conclusion tick, per
   proven cycle).

   Everything but the host wall column is a pure function of the
   seed, so these are the tightest gates in the document — and the
   p99 latency carries a hard SLO ceiling: blowing past it fails
   `bench/main.exe check` even if someone also regresses the
   checked-in baseline to match.  A scenario where no detection
   concluded records nan, which breaches the ceiling too. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Runtime = Adgc_rt.Runtime
module Detector = Adgc_dcda.Detector
module Policy = Adgc_dcda.Policy
module Report = Adgc_dcda.Report
module Summarize = Adgc_snapshot.Summarize
open Bench_common

type scenario = {
  label : string;
  procs : int;
  seed : int;
  slo_p99 : float;  (* ticks *)
  build : Adgc_rt.Cluster.t -> unit;
}

let ring ~label ~span ~slo_p99 =
  {
    label;
    procs = span;
    seed = 42;
    slo_p99;
    build =
      (fun cluster ->
        ignore
          (Topology.ring ~objs_per_proc:2 cluster ~procs:(List.init span (fun i -> i))
            : Topology.built));
  }

let scenarios () =
  let base =
    [
      ring ~label:"ring4" ~span:4 ~slo_p99:2048.0;
      {
        label = "fig4";
        procs = 6;
        seed = 42;
        slo_p99 = 2048.0;
        build = (fun cluster -> ignore (Topology.fig4 cluster : Topology.built));
      };
    ]
  in
  if smoke () then base else base @ [ ring ~label:"ring8" ~span:8 ~slo_p99:4096.0 ]

(* Nearest-rank percentile, [p] in [0, 100], to bucket granularity:
   the upper bound of the bucket holding the rank (the conservative
   answer for a latency gate).  [nan] when the histogram is empty;
   [infinity] when the rank lands in the overflow bucket, which the
   results document writes as null and the gate judges as a lost
   value. *)
let histogram_percentile (h : Stats.histogram) p =
  if h.Stats.samples = 0 then Float.nan
  else begin
    let rank =
      Int.max 1
        (Int.min h.Stats.samples (int_of_float (ceil (p /. 100.0 *. float_of_int h.Stats.samples))))
    in
    let n = Array.length h.Stats.counts in
    let rec go i cum =
      if i >= n then Float.infinity
      else
        let cum = cum + h.Stats.counts.(i) in
        if cum >= rank then
          if i < Array.length h.Stats.buckets then h.Stats.buckets.(i) else Float.infinity
        else go (i + 1) cum
    in
    go 0 0
  end

(* [(p, value)] per requested [p] from the named observed histogram;
   [None] when it was never observed.  Every latency percentile the
   detection series gate on comes through here. *)
let percentiles ~ps stats name =
  Option.map
    (fun h -> List.map (fun p -> (p, histogram_percentile h p)) ps)
    (Stats.histogram_opt stats name)

let run_scenario s =
  let config = { (Config.quick ~seed:s.seed ~n_procs:s.procs ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  s.build (Sim.cluster sim);
  Sim.start sim;
  let clean, wall = wall_ms (fun () -> Sim.run_until_clean ~step:500 ~max_time:600_000 sim) in
  let stats = Sim.stats sim in
  let pcts =
    match percentiles ~ps:[ 50.0; 99.0 ] stats "dcda.detection_latency" with
    | Some [ (_, p50); (_, p99) ] -> Some (p50, p99)
    | Some _ | None -> None
  in
  let cycles = Stats.get stats "dcda.cycles_found" in
  let cdms = Stats.get stats "net.msg.sent.cdm" in
  let ticks = Sim.now sim in
  Sim.teardown sim;
  (clean, ticks, pcts, cycles, cdms, wall)

(* ------------------------------------------------------------------ *)
(* E6's one-ring detection: a single CDM detection around an unrooted
   ring of [span] processes, initiated by hand on freshly summarized
   processes and drained.  Returns the detection latency in ticks, the
   CDMs sent, their bytes, the minor words the drain allocated and the
   host wall. *)

let detect_ring ~span =
  let net_config = Network.default_config () in
  net_config.Network.account_bytes <- true;
  let cluster = Cluster.create ~net_config ~n:span () in
  let rt = Cluster.rt cluster in
  let detectors =
    Array.map (fun p -> Detector.attach rt p ~policy:Policy.default) rt.Runtime.procs
  in
  let built = Topology.ring cluster ~procs:(List.init span (fun i -> i)) in
  let now = Cluster.now cluster in
  Array.iteri
    (fun i d -> Detector.set_summary d (Summarize.run ~now (Cluster.proc cluster i)))
    detectors;
  let start = Cluster.now cluster in
  ignore (Detector.initiate detectors.(0) (Topology.scion_key built ~src:(span - 1) "n0_0") : bool);
  let before = Gc.minor_words () in
  let (), wall = wall_ms (fun () -> ignore (Cluster.drain cluster : int)) in
  let words = Gc.minor_words () -. before in
  let stats = Cluster.stats cluster in
  let reports = Array.to_list detectors |> List.concat_map Detector.reports in
  let latency = match reports with r :: _ -> r.Report.concluded_time - start | [] -> -1 in
  (latency, Stats.get stats "net.msg.sent.cdm", Stats.get stats "net.bytes.cdm", words, wall)

(* The CDM bytes of E6's 8- and 32-process spans, as gated series: a
   pure function of the wire format, so any change to a CDM's size
   shows here.  Beside them, the minor words the detection's hops
   allocate, read from a second, identical run: the first sizes the
   process-global scratch (the codec's and the algebra's buffers), so
   the second allocates the same words whatever ran before it. *)
let run_e6 recorder =
  section "detection.e6: CDM bytes of one ring detection";
  let rows =
    List.map
      (fun span ->
        let latency, msgs, bytes, _, _ = detect_ring ~span in
        let _, _, _, words, _ = detect_ring ~span in
        let config = [ "detection.e6"; string_of_int span ] in
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.e6.cdm_bytes.span%d" span)
          ~unit_:"bytes" ~config (float_of_int bytes);
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.e6.cdm_minor_words.span%d" span)
          ~unit_:"words" ~config words;
        [
          string_of_int span;
          Printf.sprintf "%d ticks" latency;
          string_of_int msgs;
          Printf.sprintf "%d B" bytes;
          Printf.sprintf "%.0f" words;
        ])
      [ 8; 32 ]
  in
  Table.print
    ~header:[ "processes"; "detection latency"; "CDM msgs"; "CDM bytes"; "minor words" ]
    ~rows ()

(* ------------------------------------------------------------------ *)
(* E7: the same ring detection by distributed back-tracing, the
   related-work comparator [11], attached by hand to a bare cluster.
   Returns its messages, their bytes, the peak per-process state and
   the host wall. *)

let backtrack_ring ~span =
  let module Backtrack = Adgc_baseline.Backtrack in
  let net_config = Network.default_config () in
  net_config.Network.account_bytes <- true;
  let cluster = Cluster.create ~net_config ~n:span () in
  let rt = Cluster.rt cluster in
  let bts = Array.map (fun p -> Backtrack.attach rt p) rt.Runtime.procs in
  let built = Topology.ring cluster ~procs:(List.init span (fun i -> i)) in
  let now = Cluster.now cluster in
  Array.iteri
    (fun i bt -> Backtrack.set_summary bt (Summarize.run ~now (Cluster.proc cluster i)))
    bts;
  ignore (Backtrack.suspect bts.(0) (Topology.scion_key built ~src:(span - 1) "n0_0") : bool);
  let (), wall = wall_ms (fun () -> ignore (Cluster.drain cluster : int)) in
  let stats = Cluster.stats cluster in
  (Stats.get stats "bt.msg", Stats.get stats "net.bytes.ext", Stats.get stats "bt.state_peak", wall)

(* The E7 table; with a recorder, also its deterministic series. *)
let e7 ?recorder () =
  section "E7: DCDA vs distributed back-tracing (related work [11])";
  let rows =
    List.map
      (fun span ->
        let _, cdm_msgs, cdm_bytes, _, _ = detect_ring ~span in
        let bt_msgs, bt_bytes, bt_state, _ = backtrack_ring ~span in
        Option.iter
          (fun r ->
            let d name unit_ v =
              det r ~section:"detection"
                ~name:(Printf.sprintf "detection.e7.%s.span%d" name span)
                ~unit_
                ~config:[ "detection.e7"; string_of_int span ]
                (float_of_int v)
            in
            d "dcda_msgs" "msgs" cdm_msgs;
            d "bt_msgs" "msgs" bt_msgs;
            d "bt_bytes" "bytes" bt_bytes;
            d "bt_state" "entries" bt_state)
          recorder;
        [
          string_of_int span;
          string_of_int cdm_msgs;
          Printf.sprintf "%d B" cdm_bytes;
          "0";
          string_of_int bt_msgs;
          Printf.sprintf "%d B" bt_bytes;
          string_of_int bt_state;
        ])
      [ 2; 4; 8; 16 ]
  in
  Table.print
    ~header:
      [ "processes"; "DCDA msgs"; "DCDA bytes"; "DCDA state"; "BT msgs"; "BT bytes"; "BT state" ]
    ~rows ();
  print_endline "the DCDA keeps no per-detection state in processes; back-tracing must hold";
  print_endline "continuations (state column) and answer every query with a reply"

(* ------------------------------------------------------------------ *)
(* E12: Hughes' timestamp collector [7] against the DCDA on a garbage
   3-ring, with the fourth process healthy or crashed.  Each returns
   the reclaim tick ([None]: never clean by the deadline) and the
   messages sent; Hughes also its coordinator's stalls. *)

let e12_deadline = 150_000

let hughes_scenario ~crash_one =
  let module Hughes = Adgc_baseline.Hughes in
  let config =
    {
      (Runtime.default_config ()) with
      Runtime.lgc_period = 300;
      new_set_period = 350;
      scion_grace = 3_000;
    }
  in
  let cluster = Cluster.create ~config ~n:4 () in
  Adgc.Kernel.start cluster (Adgc.Kernel.gc_rows (Cluster.rt cluster));
  let hughes = Hughes.install ~round_period:200 cluster in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  if crash_one then Cluster.crash cluster 3;
  let rec go () =
    if Cluster.total_objects cluster = 0 then Some (Cluster.now cluster)
    else if Cluster.now cluster >= e12_deadline then None
    else begin
      Cluster.run_for cluster 1_000;
      go ()
    end
  in
  let cleaned = go () in
  let stats = Cluster.stats cluster in
  (cleaned, Stats.get stats "hughes.stamp_msgs", Hughes.stalls hughes)

let dcda_scenario ~crash_one =
  let config = Config.quick ~n_procs:4 () in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  if crash_one then Cluster.crash cluster 3;
  Sim.start sim;
  let cleaned =
    if Sim.run_until_clean ~step:1_000 ~max_time:e12_deadline sim then Some (Sim.now sim) else None
  in
  (cleaned, Stats.get (Sim.stats sim) "net.msg.sent.cdm")

(* The E12 table; with a recorder, also its deterministic series.  A
   collector that never gets clean records [cleaned] 0 and no reclaim
   tick. *)
let e12 ?recorder () =
  section "E12: Hughes timestamp GC [7] vs the DCDA (3-ring + 1 bystander)";
  let rows =
    List.map
      (fun crash_one ->
        let label = if crash_one then "crashed" else "healthy" in
        let h_clean, h_msgs, h_stalls = hughes_scenario ~crash_one in
        let d_clean, d_msgs = dcda_scenario ~crash_one in
        Option.iter
          (fun r ->
            let d ?direction name unit_ v =
              det r ~section:"detection" ?direction
                ~name:(Printf.sprintf "detection.e12.%s.%s" label name)
                ~unit_
                ~config:[ "detection.e12"; label ]
                (float_of_int v)
            in
            let collector name cleaned msgs =
              d ~direction:Sample.Higher_better (name ^ ".cleaned") "bool"
                (Bool.to_int (Option.is_some cleaned));
              Option.iter (d (name ^ ".reclaim_ticks") "ticks") cleaned;
              d (name ^ ".msgs") "msgs" msgs
            in
            collector "hughes" h_clean h_msgs;
            d "hughes.stalls" "rounds" h_stalls;
            collector "dcda" d_clean d_msgs)
          recorder;
        let show = function Some t -> Printf.sprintf "%d ticks" t | None -> "NEVER" in
        [
          (if crash_one then "bystander crashed" else "healthy");
          show h_clean;
          string_of_int h_msgs;
          string_of_int h_stalls;
          show d_clean;
          string_of_int d_msgs;
        ])
      [ false; true ]
  in
  Table.print
    ~header:
      [ "scenario"; "Hughes reclaim"; "Hughes msgs"; "Hughes stalls"; "DCDA reclaim"; "DCDA msgs" ]
    ~rows ();
  print_endline "Hughes' global minimum needs every process: one silent bystander freezes";
  print_endline "collection everywhere, and stamp propagation is a permanent cost; the DCDA";
  print_endline "only ever involves the cycle's own processes (paper section 5)"

let run recorder =
  section "detection: end-to-end cycle-reclamation latency (obs histograms)";
  let rows =
    List.map
      (fun s ->
        let clean, ticks, pcts, cycles, cdms, wall = run_scenario s in
        let p50, p99 = match pcts with Some (a, b) -> (a, b) | None -> (Float.nan, Float.nan) in
        let config =
          [ "detection"; s.label; string_of_int s.procs; string_of_int s.seed ]
        in
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.time_to_clean_ticks" s.label)
          ~unit_:"ticks" ~config (float_of_int ticks);
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.dcda.detection_latency.p50" s.label)
          ~unit_:"ticks" ~config p50;
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.dcda.detection_latency.p99" s.label)
          ~unit_:"ticks" ~slo:s.slo_p99 ~config p99;
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.cycles_found" s.label)
          ~unit_:"cycles" ~direction:Sample.Higher_better ~config (float_of_int cycles);
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.cdms_per_cycle" s.label)
          ~unit_:"msgs" ~config
          (float_of_int cdms /. float_of_int (Int.max 1 cycles));
        timing recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.wall_ms" s.label)
          ~unit_:"ms" ~config [ wall ];
        [
          s.label;
          (if clean then Printf.sprintf "%d ticks" ticks else "NOT RECLAIMED");
          Printf.sprintf "%.0f" p50;
          Printf.sprintf "%.0f (SLO %.0f)" p99 s.slo_p99;
          string_of_int cycles;
          string_of_int cdms;
          Printf.sprintf "%.1f ms" wall;
        ])
      (scenarios ())
  in
  Table.print
    ~header:
      [ "scenario"; "time to clean"; "latency p50"; "latency p99"; "cycles"; "CDMs"; "host wall" ]
    ~rows ();
  print_endline "latencies are simulated ticks from the dcda.detection_latency histogram";
  print_endline "(initiation to conclusion per proven cycle), so the p50/p99 gates are";
  print_endline "machine-independent; only the host-wall column is timing-class";
  run_e6 recorder;
  e7 ~recorder ();
  e12 ~recorder ()
