(* Mutually-linked distributed cycles — the paper's Figure 4, replayed
   with the full CDM trace printed in the paper's notation.

   Two cycles share the path T_P4 -> D_P1 -> F_P2; the left one is
   F -> V -> T -> D -> F, the right one F -> K -> ZB -> (ZD) -> Y ->
   T -> D -> F, with Y converging on the same stub to T that V uses.
   The first CDM loop around the left cycle comes back with an
   unresolved dependency on Y (the matching shows {{Y} -> {}}); the
   continuation through K, ZB and Y resolves it and the detection
   concludes.

   Run with: dune exec examples/mutual_cycles.exe *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Detector = Adgc_dcda.Detector
module Trace = Adgc_util.Trace
open Adgc_workload

let () =
  let config = Config.quick ~n_procs:6 () in
  let sim = Sim.create ~config () in
  (* The event trace is off until someone reads it, as here. *)
  Trace.set_enabled (Sim.trace sim) true;
  let cluster = Sim.cluster sim in
  let built = Topology.fig4 cluster in

  Printf.printf "Topology (paper Fig. 4, processes P1..P6 are P0..P5 here):\n";
  Printf.printf "  left cycle : F@P1 -> V@P4 -> T@P3 -> D@P0 -> F\n";
  Printf.printf "  right cycle: F@P1 -> K@P2 -> ZB@P5 -> ZD@P5 -> Y@P4 -> T@P3 -> ...\n";
  Printf.printf "  both cycles are garbage: no process holds a root.\n\n";

  (* Drive the pipeline by hand so the trace stays readable: one
     snapshot round, then one detection from F's scion. *)
  Sim.snapshot_all sim;
  let key_f = Topology.scion_key built ~src:0 "F" in
  Format.printf "Initiating detection from candidate scion %a@\n@\n"
    (Names.pp_ref built.Topology.names) key_f;
  ignore (Detector.initiate (Sim.detector sim 1) key_f : bool);
  ignore (Cluster.drain cluster : int);

  (* Print the detector's trace: every CDM hop, abort and conclusion. *)
  print_endline "DCDA trace:";
  List.iter
    (fun (e : Trace.event) -> Format.printf "  %a@." Trace.pp_event e)
    (Trace.by_topic (Sim.trace sim) "dcda");

  (* The conclusion names every reference of both cycles. *)
  List.iter
    (fun (r : Adgc_dcda.Report.t) ->
      Format.printf "@\nProven cycle (%d references across %d processes):@."
        (List.length r.Adgc_dcda.Report.proven)
        (Adgc_dcda.Report.span r);
      List.iter
        (fun key -> Format.printf "  %a@." (Names.pp_ref built.Topology.names) key)
        r.Adgc_dcda.Report.proven)
    (Sim.reports sim);

  (* Hand the rest to the acyclic collector. *)
  Sim.start sim;
  let clean = Sim.run_until_clean ~step:500 ~max_time:100_000 sim in
  Printf.printf "\nAfter the acyclic cascade: objects=%d clean=%b\n"
    (Cluster.total_objects cluster) clean
