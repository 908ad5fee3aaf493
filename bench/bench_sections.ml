(* The section registry, shared by the CLI runner and the smoke test.

   Perf sections feed samples into the recorder and are what
   `bench/main.exe check` gates; paper sections print the paper's
   tables for humans and record nothing. *)

let perf : (string * (Adgc_perf.Recorder.t -> unit)) list =
  [
    ("tracer", Bench_tracer.run);
    ("telemetry", Bench_telemetry.run);
    ("net", Bench_net.run);
    ("detection", Bench_detection.run);
    ("scale", Bench_scale.run);
    ("wire", Bench_wire.run);
  ]

let paper : (string * (unit -> unit)) list = Bench_paper.sections

let names = List.map fst perf @ List.map fst paper

(* Run the requested sections (all when [names] is empty) against a
   fresh recorder and return the results document.  Unknown names
   raise [Invalid_argument]. *)
let run ?(names = []) () =
  let requested = match names with [] -> List.map fst perf @ List.map fst paper | l -> l in
  List.iter
    (fun name ->
      if (not (List.mem_assoc name perf)) && not (List.mem_assoc name paper) then
        invalid_arg (Printf.sprintf "unknown bench section %S" name))
    requested;
  let recorder = Adgc_perf.Recorder.create ~smoke:(Bench_common.smoke ()) () in
  List.iter
    (fun name ->
      match List.assoc_opt name perf with
      | Some f -> f recorder
      | None -> (List.assoc name paper) ())
    requested;
  Adgc_perf.Recorder.document recorder ~rev:(Bench_common.rev ()) ~host:(Bench_common.host ())
