(* Net section (E23): the socket-backed multi-process driver vs the
   in-memory simulator on the same scenario — what real processes,
   syscalls and wire serialization cost relative to simulated
   delivery.  Nodes are spawned by exec'ing the adgc_sim binary, the
   way `adgc_sim drive` spawns them.

   The in-memory columns are deterministic (pure functions of the
   seed); everything measured on the socket side is wall-clock slaved
   and recorded as timing-class. *)

module Sim = Adgc.Sim
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Net_scenario = Adgc_net.Scenario
module Coordinator = Adgc_net.Coordinator
open Bench_common

let run recorder =
  section "E23: socket driver vs in-memory simulator (ring to full reclamation)";
  match adgc_sim_exe () with
  | None -> print_endline "adgc_sim.exe not found (run `dune build` first); section skipped"
  | Some exe ->
      let sizes = if smoke () then [ 4 ] else [ 4; 8; 16 ] in
      let rows =
        List.map
          (fun procs ->
            let scenario = Net_scenario.make ~topology:Net_scenario.Ring ~procs () in
            let sim, _built = Net_scenario.build scenario in
            Sim.start sim;
            let clean, sim_ms =
              wall_ms (fun () -> Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim)
            in
            let sim_ticks = Sim.now sim in
            let sim_msgs = Stats.get (Sim.stats sim) "net.msg.sent" in
            Sim.teardown sim;
            let r =
              Coordinator.run
                (Coordinator.options ~serve:[ exe; "serve" ] scenario)
            in
            let frames = Stats.get r.Coordinator.stats "net.wire.sent" in
            let wall = Float.max 1e-6 r.Coordinator.wall_s in
            let us_per_tick =
              wall *. 1e6 /. float_of_int (Int.max 1 r.Coordinator.max_tick)
            in
            let config =
              [ "net"; "ring"; string_of_int procs; string_of_bool (smoke ()) ]
            in
            det recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.sim_ticks" procs)
              ~unit_:"ticks" ~config (float_of_int sim_ticks);
            det recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.sim_msgs" procs)
              ~unit_:"msgs" ~config (float_of_int sim_msgs);
            timing recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.sim_wall_ms" procs)
              ~unit_:"ms" ~config [ sim_ms ];
            timing recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.wall_ms" procs)
              ~unit_:"ms" ~config
              [ wall *. 1000.0 ];
            timing recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.frames" procs)
              ~unit_:"frames" ~config (* reconnects/heartbeats vary run to run *)
              [ float_of_int frames ];
            timing recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.frames_per_sec" procs)
              ~unit_:"frames/s" ~direction:Sample.Higher_better ~config
              [ float_of_int frames /. wall ];
            timing recorder ~section:"net"
              ~name:(Printf.sprintf "net.ring%d.us_per_tick" procs)
              ~unit_:"us" ~config [ us_per_tick ];
            [
              string_of_int procs;
              Printf.sprintf "%.1f ms%s" sim_ms (if clean then "" else " (!)");
              Printf.sprintf "%d ticks" sim_ticks;
              string_of_int sim_msgs;
              Printf.sprintf "%.0f ms%s" (wall *. 1000.0)
                (if Coordinator.ok r then "" else " (!)");
              Printf.sprintf "%d ticks" r.Coordinator.max_tick;
              string_of_int frames;
              Printf.sprintf "%.0f" (float_of_int frames /. wall);
              Printf.sprintf "%.0f us" us_per_tick;
            ])
          sizes
      in
      Table.print
        ~header:
          [
            "procs"; "sim wall"; "sim ticks"; "sim msgs"; "net wall"; "net ticks"; "net frames";
            "frames/sec"; "net us/tick";
          ]
        ~rows ();
      print_endline "same scenario, same duties, same oracle; the socket columns add OS";
      print_endline "processes, select() scheduling and framed wire serialization ((!) marks a";
      print_endline "run that missed full reclamation)"
