(* Telemetry section: what the observability layer (spans + lineage)
   costs when on, and that it costs nothing
   when off (PR 3's ~15% claim). *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
open Bench_common

let telemetry_run ~telemetry ~seed =
  let config = Config.quick ~seed ~n_procs:6 () in
  let config = { config with Config.telemetry } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _g1 = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let _g2 = Topology.ring ~objs_per_proc:2 cluster ~procs:[ 3; 4; 5 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 0; 3 ] in
  let churn = Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create 11) () in
  Adgc_workload.Churn.run churn ~steps:400 ~every:37;
  Sim.start sim;
  let (), ms = wall_ms (fun () -> Sim.run_for sim 60_000) in
  Sim.teardown sim;
  (sim, ms)

let run recorder =
  section "telemetry: observability overhead (6 procs, 2 garbage rings + churn)";
  let reps = if smoke () then 3 else 9 in
  ignore (telemetry_run ~telemetry:false ~seed:5 : Sim.t * float);
  ignore (telemetry_run ~telemetry:true ~seed:5 : Sim.t * float);
  let pairs =
    List.init reps (fun i ->
        Gc.compact ();
        let _, off = telemetry_run ~telemetry:false ~seed:(5 + i) in
        let _, on = telemetry_run ~telemetry:true ~seed:(5 + i) in
        (off, on))
  in
  let off = median (List.map fst pairs) in
  let on = median (List.map snd pairs) in
  let overhead = median (List.map (fun (o, n) -> pct o n) pairs) in
  (* Allocation, read from runs identical to the warm ones above: the
     same words however far earlier sections in this process grew the
     shared scratch, so a deterministic gate beside the noisy wall
     times. *)
  let minor_words ~telemetry =
    let before = Gc.minor_words () in
    let sim, _ = telemetry_run ~telemetry ~seed:5 in
    (sim, Gc.minor_words () -. before)
  in
  let _, off_words = minor_words ~telemetry:false in
  let sim, on_words = minor_words ~telemetry:true in
  let spans = List.length (Adgc_obs.Span.spans (Sim.obs sim)) in
  let detections = List.length (Adgc_obs.Lineage.detections (Sim.lineage sim)) in
  Table.print
    ~header:[ "telemetry"; "60k ticks"; "overhead"; "spans"; "detections traced" ]
    ~rows:
      [
        [ "off"; Printf.sprintf "%.2f ms" off; "-"; "0"; "0" ];
        [
          "on";
          Printf.sprintf "%.2f ms" on;
          Printf.sprintf "%.2f%%" overhead;
          string_of_int spans;
          string_of_int detections;
        ];
      ]
    ();
  print_endline "off is the shipping default: disabled spans are a single load+branch,";
  print_endline "so the paths instrumented for this layer stay at their previous cost";
  let config = [ "telemetry"; "procs=6"; "time=60000"; string_of_int reps ] in
  timing recorder ~section:"telemetry" ~name:"telemetry.off_ms" ~unit_:"ms" ~config
    (List.map fst pairs);
  timing recorder ~section:"telemetry" ~name:"telemetry.on_ms" ~unit_:"ms" ~config
    (List.map snd pairs);
  timing recorder ~section:"telemetry" ~name:"telemetry.overhead_pct" ~unit_:"%" ~config
    (List.map (fun (o, n) -> pct o n) pairs);
  det recorder ~section:"telemetry" ~name:"telemetry.off.minor_words" ~unit_:"words" ~config off_words;
  det recorder ~section:"telemetry" ~name:"telemetry.on.minor_words" ~unit_:"words" ~config on_words;
  det recorder ~section:"telemetry" ~name:"telemetry.spans" ~unit_:"spans"
    ~direction:Sample.Higher_better ~config (float_of_int spans);
  det recorder ~section:"telemetry" ~name:"telemetry.detections_traced" ~unit_:"detections"
    ~direction:Sample.Higher_better ~config (float_of_int detections)
