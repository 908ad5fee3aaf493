(* Wire section (E31, E36, E40): the bytes one message of each payload
   kind costs, and a stub set's and a CDM's of eight entries — what the simulator charges it ([Net_codec.size Msg.emit])
   and, behind the envelope's three-byte run [3], what a socket frame
   carries.
   Deterministic: a change to any header or payload shape moves one of
   these series. *)

open Adgc_algebra
module Msg = Adgc_rt.Msg
module Net_codec = Adgc_serial.Net_codec
module Table = Adgc_util.Table
open Bench_common

(* One payload of each kind, in case order, each in an envelope from
   P0 to P1 with seq 2, sent at tick 3. *)
let samples =
  let p0 = Proc_id.of_int 0 in
  let oid o s = Oid.make ~owner:(Proc_id.of_int o) ~serial:s in
  let key = Ref_key.make ~src:p0 ~target:(oid 1 2) in
  let id = Detection_id.make ~initiator:p0 ~seq:4 in
  let algebra =
    Algebra.add_exn (Algebra.add_exn Algebra.empty Algebra.Source key ~ic:1) Algebra.Target key ~ic:1
  in
  List.map
    (Msg.make ~seq:2 ~src:p0 ~dst:(Proc_id.of_int 1) ~sent_at:3)
    [
      Msg.Rmi_request { req_id = 1; target = oid 1 2; args = [ oid 0 3 ]; stub_ic = 1 };
      Msg.Rmi_reply { req_id = 1; target = oid 1 2; results = [ oid 1 4 ] };
      Msg.Export_notice { notice_id = 1; target = oid 1 2; new_holder = p0 };
      Msg.Export_ack { notice_id = 1; target = oid 1 2; new_holder = p0 };
      Msg.New_set_stubs { seqno = 5; serials = [| 2 |]; ics = [| 3 |] };
      Msg.Scion_probe;
      Msg.Cdm (Cdm.make ~id ~algebra ~frontier:key ~hops:1 ~budget:16);
      Msg.Cdm_delete { id; scions = [ key ] };
      Msg.Ext "body";
      Msg.Batch [ Msg.Scion_probe; Msg.Scion_probe ];
    ]

(* A stub set and a CDM of eight entries each, to P1 as above: what
   one more stub or algebra entry costs. *)
let wide_samples =
  let p0 = Proc_id.of_int 0 and p1 = Proc_id.of_int 1 in
  let key i = Ref_key.make ~src:p0 ~target:(Oid.make ~owner:p1 ~serial:(2 + (3 * i))) in
  let algebra =
    List.fold_left
      (fun alg i -> Algebra.add_exn (Algebra.add_exn alg Algebra.Source (key i) ~ic:i) Algebra.Target (key i) ~ic:i)
      Algebra.empty (List.init 8 Fun.id)
  in
  List.map
    (Msg.make ~seq:2 ~src:p0 ~dst:p1 ~sent_at:3)
    [
      Msg.New_set_stubs
        {
          seqno = 5;
          serials = Array.init 8 (fun i -> (key i).Ref_key.target.Oid.serial);
          ics = Array.init 8 Fun.id;
        };
      Msg.Cdm
        (Cdm.make ~id:(Detection_id.make ~initiator:p0 ~seq:4) ~algebra ~frontier:(key 0) ~hops:1
           ~budget:16);
    ]

let run recorder =
  section "E36: wire bytes of one message per payload kind";
  let row suffix (m : Msg.t) =
    let kind = Msg.kind m.Msg.payload ^ suffix in
    let bytes = Net_codec.size Msg.emit m in
    det recorder ~section:"wire" ~name:("wire.size." ^ kind) ~unit_:"bytes"
      ~config:[ "wire"; kind ] (float_of_int bytes);
    [ kind; string_of_int bytes; string_of_int (bytes + 3) ]
  in
  let rows = List.map (row "") samples @ List.map (row ".8") wide_samples in
  Table.print ~header:[ "payload"; "charged bytes"; "socket frame bytes" ] ~rows ()
