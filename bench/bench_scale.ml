(* Scale section (E26): the flat clique's scale curve, small enough
   to gate in CI but shaped exactly like the 256→1024-proc runs the
   scale job drives through the CLI.  Deterministic series (ticks,
   messages per process, live words, minor words allocated by the run)
   gate tightly; the wall-clock one is timing-class. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Heap = Adgc_rt.Heap
module Runtime = Adgc_rt.Runtime
module Process = Adgc_rt.Process
module Topology = Adgc_workload.Topology
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Rng = Adgc_util.Rng
open Bench_common

type outcome = {
  clean : bool;
  ticks : int;
  msgs_per_proc : float;
  dense_words : int;
  minor_words : float;  (* allocated while running until clean *)
  wall_ms : float;
}

let run_flat ~seed ~procs ~objects =
  let config = Config.quick ~seed ~n_procs:procs () in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built =
    Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects ~edges:(2 * objects) ~remote_prob:0.35 ~root_prob:0.15
  in
  (* Peak live-words proxy: the dense-trace arenas right after the
     build, when the population is at its maximum. *)
  let rt = Cluster.rt cluster in
  let dense_words = ref 0 in
  Array.iter
    (fun (p : Process.t) ->
      ignore (Heap.dense_sync p.Process.heap : int);
      dense_words := !dense_words + Heap.dense_words p.Process.heap)
    rt.Runtime.procs;
  Sim.start sim;
  let before = Gc.minor_words () in
  let clean, wall_ms = wall_ms (fun () -> Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim) in
  let minor_words = Gc.minor_words () -. before in
  let stats = Sim.stats sim in
  let ticks = Sim.now sim in
  let msgs = Stats.get stats "net.msg.sent" in
  Sim.teardown sim;
  {
    clean;
    ticks;
    msgs_per_proc = float_of_int msgs /. float_of_int procs;
    dense_words = !dense_words;
    minor_words;
    wall_ms;
  }

let run recorder =
  section "E26: scale curve of the flat clique";
  let seed = 11 in
  (* ADGC_SCALE_{PROCS,OBJECTS} override the full-mode sizes: the E26
     curves (256–1024 procs) are produced by sweeping these, while
     CI's smoke leg stays pinned and cheap. *)
  let env_int var default =
    match Option.bind (Sys.getenv_opt var) int_of_string_opt with
    | Some v when v > 0 -> v
    | Some _ | None -> default
  in
  let procs, objects =
    if smoke () then (16, 2_000)
    else (env_int "ADGC_SCALE_PROCS" 64, env_int "ADGC_SCALE_OBJECTS" 50_000)
  in
  let o = run_flat ~seed ~procs ~objects in
  (* The allocation is read from a second, identical run: the first
     sizes the process-global scratch (the summarizer's buffers and
     the like), so the second allocates the same words however far
     earlier sections in this process already grew it. *)
  let again = run_flat ~seed ~procs ~objects in
  let config_digest =
    [ "scale"; string_of_int procs; string_of_int objects; string_of_bool (smoke ()) ]
  in
  let name fmt = Printf.sprintf "scale.flat.%s" fmt in
  det recorder ~section:"scale" ~name:(name "ticks") ~unit_:"ticks" ~config:config_digest
    (float_of_int o.ticks);
  det recorder ~section:"scale" ~name:(name "msgs_per_proc") ~unit_:"msgs" ~config:config_digest
    o.msgs_per_proc;
  det recorder ~section:"scale" ~name:(name "dense_words") ~unit_:"words" ~config:config_digest
    (float_of_int o.dense_words);
  det recorder ~section:"scale" ~name:(name "minor_words") ~unit_:"words" ~config:config_digest
    again.minor_words;
  timing recorder ~section:"scale" ~name:(name "wall_ms") ~unit_:"ms" ~config:config_digest
    [ o.wall_ms ];
  Table.print
    ~header:[ "procs"; "objects"; "clean"; "ticks"; "msgs/proc"; "dense words"; "wall" ]
    ~rows:
      [
        [
          string_of_int procs;
          string_of_int objects;
          string_of_bool o.clean;
          string_of_int o.ticks;
          Printf.sprintf "%.1f" o.msgs_per_proc;
          string_of_int o.dense_words;
          Printf.sprintf "%.0f ms" o.wall_ms;
        ];
      ]
    ()
