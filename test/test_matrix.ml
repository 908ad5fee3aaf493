(* Configuration-matrix tests: the fig3 lifecycle must work under
   every combination of byte accounting, DGC batching window and
   deletion mode — the pieces are designed to be swappable, so prove
   it.  Snapshots always travel in the compact ("net") format; the
   "sized" column also counts every message's compact size on the
   send path, which must leave the protocol untouched; the "sync"
   column sets [dgc_window = 0], so every control payload leaves
   inside [send_dgc] as its own message.  Plus decoder fuzzing: no input may crash a codec (only
   Wire.Malformed). *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Network = Adgc_rt.Network
module Stats = Adgc_util.Stats
module Policy = Adgc_dcda.Policy
module Sval = Adgc_paper.Sval
module Doc_codec = Adgc_paper.Doc_codec
module Rotor_codec = Adgc_paper.Rotor_codec

let check = Alcotest.check

let fig3_lifecycle ~account_bytes ~dgc_window ~deletion_mode () =
  let policy = { Policy.default with Policy.deletion_mode } in
  let config = Config.quick ~n_procs:4 () in
  let runtime =
    match dgc_window with
    | None -> config.Config.runtime
    | Some dgc_window -> { config.Config.runtime with Adgc_rt.Runtime.dgc_window }
  in
  let config =
    {
      config with
      Config.policy;
      runtime;
      net = { config.Config.net with Network.account_bytes };
    }
  in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let checker = Adgc_check.Oracle.install cluster in
  let built = Topology.fig3 cluster in
  Sim.start sim;
  Sim.run_for sim 3_000;
  Adgc_rt.Mutator.remove_root cluster (Topology.obj built "A");
  let clean = Sim.run_until_clean ~max_time:300_000 sim in
  Scaffold.assert_safe checker;
  check Alcotest.bool "clean" true clean;
  check Alcotest.int "empty" 0 (Cluster.total_objects cluster);
  let stats = (Cluster.rt cluster).Adgc_rt.Runtime.stats in
  let per_kind prefix = Array.map (fun k -> Stats.get stats (prefix ^ k)) Adgc_rt.Msg.kinds in
  let bytes = per_kind "net.bytes." and sent = per_kind "net.msg.sent." in
  if account_bytes then begin
    (* Every kind that was sent was sized, and the aggregate is the
       sum of the per-kind counts. *)
    Array.iteri
      (fun i k ->
        check Alcotest.bool (k ^ " sized iff sent") (sent.(i) > 0) (bytes.(i) > 0);
        check Alcotest.bool (k ^ " at least one byte per message") true (bytes.(i) >= sent.(i)))
      Adgc_rt.Msg.kinds;
    check Alcotest.bool "some bytes" true (Stats.get stats "net.bytes" > 0);
    check Alcotest.int "aggregate = per-kind sum" (Stats.get stats "net.bytes")
      (Array.fold_left ( + ) 0 bytes)
  end
  else check Alcotest.int "nothing sized" 0 (Stats.get stats "net.bytes");
  if dgc_window = Some 0 then
    check Alcotest.int "no batch envelope" 0 (Stats.get stats "net.msg.sent.batch")

let matrix_cases =
  List.concat_map
    (fun (col_name, account_bytes, dgc_window) ->
      List.map
        (fun mode ->
          let name = Printf.sprintf "fig3 via %s/%s" col_name (Policy.deletion_mode_name mode) in
          Alcotest.test_case name `Quick (fig3_lifecycle ~account_bytes ~dgc_window ~deletion_mode:mode))
        [ Policy.All_local; Policy.Broadcast ])
    [ ("net", false, None); ("sized", true, None); ("sync", false, Some 0) ]

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing *)

let never_crashes decode name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500
       QCheck2.Gen.(string_size ~gen:char (int_bound 200))
       (fun input ->
         match decode input with
         | _ -> true (* decoding random junk successfully is fine too *)
         | exception Adgc_serial.Wire.Malformed _ -> true))

(* Mutated valid documents: corrupt one byte of a real encoding. *)
let corrupted_roundtrip encode decode name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300
       QCheck2.Gen.(pair (int_bound 10_000) (int_bound 255))
       (fun (pos_seed, byte) ->
         let doc =
           Sval.Record
             ( "probe",
               [
                 ("a", Sval.Int 42);
                 ("b", Sval.Str "payload with <specials> & more");
                 ("c", Sval.List [ Sval.Bool true ]);
               ] )
         in
         let encoded = encode doc in
         let pos = pos_seed mod String.length encoded in
         let corrupted = Bytes.of_string encoded in
         Bytes.set corrupted pos (Char.chr byte);
         match decode (Bytes.to_string corrupted) with
         | _ -> true (* same byte or a still-valid document *)
         | exception Adgc_serial.Wire.Malformed _ -> true))

let suite =
  ( "matrix",
    matrix_cases
    @ [
        never_crashes Doc_codec.decode "doc decoder never crashes on junk";
        never_crashes Rotor_codec.decode "rotor decoder never crashes on junk";
        corrupted_roundtrip Doc_codec.encode Doc_codec.decode "doc decoder survives corruption";
        corrupted_roundtrip Rotor_codec.encode Rotor_codec.decode "rotor decoder survives corruption";
      ] )
