(* Cross-driver conformance: the same Scenario.t fed to the in-memory
   simulator and to the socket-backed multi-process driver must end in
   the same place — identical reclamation sets and clean verdicts from
   the {e same} gathered-state oracle ({!Gather.check}) applied to
   both drivers' final state.  The matrix is 3 seeds of the DCDA. *)

open Adgc_algebra
module Sim = Adgc.Sim
module Config = Adgc.Config
module Runtime = Adgc_rt.Runtime
module Scenario = Adgc_net.Scenario
module Coordinator = Adgc_net.Coordinator
module Gather = Adgc_net.Gather
module Envelope = Adgc_net.Envelope
module Frame = Adgc_net.Frame
module Transport = Adgc_net.Transport

let check = Alcotest.check

let seeds = [ 11; 23; 47 ]

let oid_set =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%s}" (String.concat "," (List.map (Format.asprintf "%a" Oid.pp) (Oid.Set.elements s))))
    Oid.Set.equal

let violations = Alcotest.list (Alcotest.testable Adgc_check.Invariant.pp ( = ))

(* Node processes are spawned by exec'ing the real [adgc_sim serve]
   binary, the way [adgc_sim drive] spawns them. *)
let serve () =
  let exe =
    match Sys.getenv_opt "ADGC_SIM_EXE" with
    | Some p -> p
    | None -> (
        let candidates =
          [
            "../bin/adgc_sim.exe" (* dune runtest: cwd is _build/default/test *);
            "_build/default/bin/adgc_sim.exe" (* repo root *);
            "bin/adgc_sim.exe";
          ]
        in
        match List.find_opt Sys.file_exists candidates with
        | Some p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
        | None -> Alcotest.fail "adgc_sim.exe not built; set ADGC_SIM_EXE")
  in
  [ exe; "serve" ]

(* Drive the scenario wholly in-memory, then put its final state
   through the very same oracle the coordinator uses: capture each
   rank's authoritative state and run Gather.check on the union. *)
let run_in_memory scenario =
  let sim, _built = Scenario.build scenario in
  let rt = Sim.rt sim in
  let n = Scenario.n_procs scenario in
  let per_rank = Array.make n [] in
  rt.Runtime.on_reclaim <-
    Some
      (fun p o ->
        let r = Proc_id.to_int p in
        per_rank.(r) <- o :: per_rank.(r));
  Sim.start sim;
  let clean = Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim in
  let states =
    List.init n (fun rank ->
        Gather.capture ~rt ~rank ~tick:(Sim.now sim) ~reclaimed:(List.rev per_rank.(rank)))
  in
  Sim.teardown sim;
  (clean, states)

let conformance_case topology seed detector () =
  let scenario = Scenario.make ~topology ~procs:4 ~seed ~detector () in
  let expected = Scenario.expected scenario in
  (* In-memory driver. *)
  let mem_clean, mem_states = run_in_memory scenario in
  check Alcotest.bool "in-memory run converged" true mem_clean;
  let mem_verdict =
    Gather.check ~expected_live:expected.Scenario.live ~expected_garbage:expected.Scenario.garbage
      mem_states
  in
  check violations "in-memory oracle clean" [] mem_verdict.Gather.violations;
  check oid_set "in-memory reclaimed exactly the garbage" expected.Scenario.garbage
    mem_verdict.Gather.reclaimed;
  (* Socket driver: one OS process per rank, same spec. *)
  let r = Coordinator.run (Coordinator.options ~deadline_s:30. ~serve:(serve ()) scenario) in
  check Alcotest.bool "socket run completed in budget" false r.Coordinator.timed_out;
  check Alcotest.(list int) "no node died" [] r.Coordinator.dead;
  check violations "socket oracle clean" [] r.Coordinator.verdict.Gather.violations;
  check oid_set "identical reclamation sets across drivers" mem_verdict.Gather.reclaimed
    r.Coordinator.verdict.Gather.reclaimed;
  check Alcotest.bool "socket run ok" true (Coordinator.ok r)

(* Charged bytes are sent bytes: every message of an in-memory run,
   sent through a real connection as the socket driver ships it, makes
   a frame whose payload is the bytes the simulator charged the
   message ([Net_codec.size Msg.emit], what [Network] accounts) plus the
   envelope's three-byte run [3] — and reads back as the same
   message. *)
let test_charged_bytes_are_sent_bytes () =
  let scenario = Scenario.make ~topology:Scenario.Ring ~procs:4 ~seed:11 ~detector:Config.Dcda () in
  let sim, _built = Scenario.build scenario in
  let sent = ref [] in
  Adgc_rt.Network.set_transport (Sim.net sim) (fun m ->
      sent := m :: !sent;
      false);
  Sim.start sim;
  ignore (Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim : bool);
  Sim.teardown sim;
  let sent = List.rev !sent in
  let kinds = List.sort_uniq compare (List.map (fun (m : Adgc_rt.Msg.t) -> Adgc_rt.Msg.kind m.payload) sent) in
  check Alcotest.bool "stub sets and CDMs among the messages" true
    (List.mem "new_set_stubs" kinds && List.mem "cdm" kinds);
  let path = Filename.temp_file "adgc_conn" ".sock" in
  let lsock = Transport.listen (Transport.Unix_sock path) in
  let conn = Transport.dial (Transport.Unix_sock path) in
  let b, _ = Unix.accept lsock in
  Unix.close lsock;
  Sys.remove path;
  Unix.set_nonblock b;
  let frames = Frame.decoder () in
  let buf = Bytes.create 65536 in
  (* Read until the one frame [conn] was given comes out. *)
  let rec next_frame () =
    Transport.flush conn;
    match Frame.next frames with
    | Some payload -> payload
    | None ->
        (match Unix.read b buf 0 (Bytes.length buf) with
        | n -> Frame.feed_sub frames buf 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
        next_frame ()
  in
  List.iter
    (fun (m : Adgc_rt.Msg.t) ->
      Transport.send conn (Envelope.Net_msg m);
      let payload = next_frame () in
      let what = Adgc_rt.Msg.kind m.payload in
      check Alcotest.int (what ^ ": frame = charged bytes + header")
        (Adgc_serial.Net_codec.size Adgc_rt.Msg.emit m + 3)
        (String.length payload);
      match Adgc_serial.Net_codec.Read.run Envelope.read payload with
      | Envelope.Net_msg m' ->
          check Alcotest.bool (what ^ ": reads back") true
            (Adgc_paper.Sval.equal (Wire_reference.msg_sval m) (Wire_reference.msg_sval m'))
      | _ -> Alcotest.fail "not a net_msg")
    sent;
  Transport.close conn;
  Unix.close b

let matrix topology =
  List.map
    (fun seed ->
      let name = Printf.sprintf "%s seed=%d dcda" (Scenario.topology_to_string topology) seed in
      Alcotest.test_case name `Slow (conformance_case topology seed Config.Dcda))
    seeds

let suite =
  ( "net_conformance",
    Alcotest.test_case "charged bytes are sent bytes" `Quick test_charged_bytes_are_sent_bytes
    :: matrix Scenario.Ring
    @ [
        (* One mixed live/garbage workload so Live_reclaimed has teeth
           (the ring is garbage wall-to-wall). *)
        Alcotest.test_case "pairs seed=11 dcda" `Slow
          (conformance_case Scenario.Pairs 11 Config.Dcda);
        (* The paper's Figure 3 (a cycle hanging off a dropped root)
           and a seeded random graph, where live and garbage objects
           interleave across all four ranks and the stub-set and CDM
           traffic crosses every link. *)
        Alcotest.test_case "fig3 seed=11 dcda" `Slow
          (conformance_case Scenario.Fig3 11 Config.Dcda);
        Alcotest.test_case "random seed=11 dcda" `Slow
          (conformance_case Scenario.Random 11 Config.Dcda);
      ] )
