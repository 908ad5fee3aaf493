(* The socket wire format: 4-byte length-prefixed frames around
   positional Net_codec payloads, one envelope each.  Everything the driver
   ships must round-trip; damaged input may only ever surface as
   Wire.Malformed (or a poisoned decoder), never as a crash; and
   frames must reassemble identically however read() splits them. *)

module Sval = Adgc_paper.Sval
module Ref = Wire_reference
module Wire = Adgc_serial.Wire
module Net_codec = Adgc_serial.Net_codec
module Frame = Adgc_net.Frame
module Envelope = Adgc_net.Envelope
module Gather = Adgc_net.Gather
module Msg = Adgc_rt.Msg
open Adgc_algebra

let check = Alcotest.check

let feed d s = Frame.feed_sub d (Bytes.of_string s) 0 (String.length s)

let sval = Alcotest.testable Sval.pp Sval.equal

let oid owner serial = Oid.make ~owner:(Proc_id.of_int owner) ~serial

let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

let algebra =
  List.fold_left
    (fun alg (role, k, ic) ->
      match Algebra.add alg role k ~ic with
      | Algebra.Added alg -> alg
      | Algebra.Ic_conflict _ -> alg)
    Algebra.empty
    [
      (Algebra.Source, key 0 (oid 1 1), 2);
      (Algebra.Target, key 1 (oid 2 3), 0);
      (Algebra.Source, key 2 (oid 0 5), 1);
    ]

(* One of every payload constructor, Batch (of the reference-free
   ones, as on the wire) included. *)
let sample_payloads : Msg.payload list =
  let flat =
    [
      Msg.Rmi_request { req_id = 7; target = oid 1 2; args = [ oid 0 1; oid 2 9 ]; stub_ic = 3 };
      Msg.Rmi_reply { req_id = 7; target = oid 1 2; results = [ oid 1 4 ] };
      Msg.Export_notice { notice_id = 11; target = oid 2 1; new_holder = Proc_id.of_int 3 };
      Msg.Export_ack { notice_id = 11; target = oid 2 1; new_holder = Proc_id.of_int 3 };
      Msg.New_set_stubs { seqno = 4; serials = [| 1; 2 |]; ics = [| 2; 0 |] };
      Msg.Scion_probe;
      Msg.Cdm
        (Cdm.make
           ~id:(Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:5)
           ~algebra ~frontier:(key 0 (oid 1 1)) ~hops:2 ~budget:16);
      Msg.Cdm_delete
        {
          id = Detection_id.make ~initiator:(Proc_id.of_int 2) ~seq:9;
          scions = [ key 0 (oid 1 1); key 1 (oid 2 3) ];
        };
      (* Comparator bodies are opaque bytes to the wire, binary or
         empty included. *)
      Msg.Ext
        (Net_codec.encode_shape Adgc_baseline.Btmsg.emit
           (Adgc_baseline.Btmsg.Query
              {
                trace = { Adgc_baseline.Btmsg.initiator = Proc_id.of_int 0; seq = 3 };
                subject = key 1 (oid 0 2);
                visited = [ key 0 (oid 1 1) ];
              }));
      Msg.Ext
        (Net_codec.encode_shape Adgc_baseline.Hmsg.emit
           (Adgc_baseline.Hmsg.Stamp [ (oid 0 1, 12); (oid 1 2, 9) ]));
      Msg.Ext "\000\255\n";
      Msg.Ext "";
    ]
  in
  flat @ [ Msg.Batch (List.filter (fun p -> Msg.payload_refs p = []) flat) ]

let sample_envelopes : Envelope.t list =
  let net_msgs =
    List.mapi
      (fun i p ->
        Envelope.Net_msg
          (Msg.make ~seq:i ~src:(Proc_id.of_int (i mod 4)) ~dst:(Proc_id.of_int 3) ~sent_at:(i * 10)
             p))
      sample_payloads
  in
  net_msgs
  @ [
      Envelope.Hello { rank = 2; procs = 4; seed = 42 };
      Envelope.Start;
      Envelope.Heartbeat { tick = 12345 };
      Envelope.Status_req;
      Envelope.Status
        {
          st_rank = 1;
          st_tick = 999;
          st_ready = true;
          st_reclaimed = [ oid 1 3; oid 1 7 ];
          st_wire_sent = 40;
          st_wire_received = 38;
          st_dup_ignored = 2;
        };
      Envelope.State_req;
      Envelope.State
        {
          Gather.rank = 1;
          tick = 999;
          objects =
            [
              { Gather.oid = oid 1 0; refs = [ oid 0 1 ]; rooted = true };
              { Gather.oid = oid 1 1; refs = []; rooted = false };
            ];
          stubs = [ { Gather.target = oid 0 1; stub_ic = 2 } ];
          scions = [ { Gather.key = key 0 (oid 1 0); scion_ic = 1; confirmed = true } ];
          reclaimed = [ oid 1 9 ];
          counters = [ ("lgc.runs", 3); ("net.msg.duplicate_ignored", 1) ];
        };
      Envelope.Drop_peer 2;
      Envelope.Shutdown;
      Envelope.Bye;
    ]

(* Encode the whole conversation as one connection would. *)
let encoded_stream envelopes =
  List.map (fun e -> Frame.encode (Net_codec.encode_shape Envelope.emit e)) envelopes

let decode_all decoder =
  let rec go acc =
    match Frame.next decoder with
    | None -> List.rev acc
    | Some payload -> go (Net_codec.Read.run Envelope.read payload :: acc)
  in
  go []

(* Envelopes compare through their reference trees. *)
let check_same_envelopes msg expected actual =
  check Alcotest.int (msg ^ ": count") (List.length expected) (List.length actual);
  List.iter2
    (fun e a -> check sval msg (Ref.envelope_sval e) (Ref.envelope_sval a))
    expected actual

(* ------------------------------------------------------------------ *)

let test_every_envelope_roundtrips () =
  let frames = encoded_stream sample_envelopes in
  let d = Frame.decoder () in
  List.iter (feed d) frames;
  check_same_envelopes "roundtrip" sample_envelopes (decode_all d)

let test_partial_reads_reassemble () =
  let blob = String.concat "" (encoded_stream sample_envelopes) in
  List.iter
    (fun chunk ->
      let d = Frame.decoder () in
      let acc = ref [] in
      let i = ref 0 in
      while !i < String.length blob do
        let len = Int.min chunk (String.length blob - !i) in
        feed d (String.sub blob !i len);
        i := !i + len;
        acc := !acc @ decode_all d
      done;
      check_same_envelopes (Printf.sprintf "chunk=%d" chunk) sample_envelopes !acc)
    [ 1; 2; 3; 7; 64; 4096 ]

let test_truncation_waits_never_crashes () =
  let frames = encoded_stream sample_envelopes in
  let blob = String.concat "" frames in
  (* Every prefix: complete frames come out, the ragged tail stays
     buffered, nothing raises. *)
  for cut = 0 to String.length blob - 1 do
    let d = Frame.decoder () in
    feed d (String.sub blob 0 cut);
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Frame.next d with Some _ -> incr n | None -> continue := false
    done;
    if !n > List.length frames then Alcotest.fail "more frames than were sent"
  done

let expect_malformed name f =
  match f () with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.failf "%s: expected Wire.Malformed" name

let test_bad_length_poisons () =
  let bads =
    [
      ("zero length", "\x00\x00\x00\x00");
      ("negative length", "\xff\xff\xff\xff");
      ("oversized length", "\x7f\xff\xff\xff");
    ]
  in
  List.iter
    (fun (name, header) ->
      let d = Frame.decoder () in
      feed d header;
      expect_malformed (name ^ ": first next") (fun () -> Frame.next d);
      (* Poisoned for good: the stream position is unrecoverable, so
         even valid bytes afterwards keep raising. *)
      feed d (Frame.encode "hello");
      expect_malformed (name ^ ": stays poisoned") (fun () -> Frame.next d))
    bads

let test_corrupt_payload_only_malformed () =
  let frames = encoded_stream sample_envelopes in
  let sample = List.nth frames 6 (* the Cdm: deepest structure *) in
  let header_len = 4 in
  let payload = String.sub sample header_len (String.length sample - header_len) in
  for pos = 0 to String.length payload - 1 do
    let mutated = Bytes.of_string payload in
    Bytes.set mutated pos (Char.chr (Char.code (Bytes.get mutated pos) lxor 0x55));
    match Net_codec.Read.run Envelope.read (Bytes.to_string mutated) with
    | (_ : Envelope.t) -> ()
    | exception Wire.Malformed _ -> ()
  done

(* One oid rule everywhere: a serial past [max_int] — the unsigned
   bits a negative serial would leave in a run — is malformed in a
   status report and in gathered state, as it is in a protocol
   message.  The forged frame is the reference's bytes with serial 77
   (byte 0x4d, once in each frame) swapped for -3's nine bytes. *)
let test_negative_serial_rejected () =
  let rec leb v =
    if v lsr 7 = 0 then String.make 1 (Char.chr v)
    else String.make 1 (Char.chr (v land 0x7f lor 0x80)) ^ leb (v lsr 7)
  in
  let forge e =
    let bytes = Ref.envelope_bytes e in
    let at = String.index bytes '\x4d' in
    String.sub bytes 0 at ^ leb (-3) ^ String.sub bytes (at + 1) (String.length bytes - at - 1)
  in
  let status =
    Envelope.Status
      {
        st_rank = 1;
        st_tick = 9;
        st_ready = true;
        st_reclaimed = [ oid 1 77 ];
        st_wire_sent = 0;
        st_wire_received = 0;
        st_dup_ignored = 0;
      }
  in
  let state =
    Envelope.State
      {
        Gather.rank = 1;
        tick = 9;
        objects = [];
        stubs = [];
        scions = [];
        reclaimed = [ oid 1 77 ];
        counters = [];
      }
  in
  List.iter
    (fun (what, e) ->
      let frame = forge e in
      expect_malformed what (fun () -> Net_codec.Read.run Envelope.read frame);
      check Alcotest.bool (what ^ ": reference rejects too") true (Ref.envelope_decode frame = None))
    [ ("status with a negative reclaimed serial", status); ("state with a negative reclaimed serial", state) ]

let test_frame_encode_rejects_bad_sizes () =
  (match Frame.encode "" with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "empty frame accepted");
  let d = Frame.decoder () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int ((16 * 1024 * 1024) + 1));
  feed d (Bytes.to_string header);
  match Frame.next d with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "a prefix beyond 16 MiB accepted"

let test_decoder_buffered_accounting () =
  let d = Frame.decoder () in
  let frame = Frame.encode "abcdef" in
  feed d (String.sub frame 0 3);
  check Alcotest.bool "partial frame waits" true (Frame.next d = None);
  feed d (String.sub frame 3 (String.length frame - 3));
  check Alcotest.bool "frame completes" true (Frame.next d = Some "abcdef");
  check Alcotest.bool "drained" true (Frame.next d = None)

let suite =
  ( "net_frame",
    [
      Alcotest.test_case "every envelope roundtrips" `Quick test_every_envelope_roundtrips;
      Alcotest.test_case "partial reads reassemble" `Quick test_partial_reads_reassemble;
      Alcotest.test_case "truncation waits, never crashes" `Quick
        test_truncation_waits_never_crashes;
      Alcotest.test_case "bad length prefix poisons" `Quick test_bad_length_poisons;
      Alcotest.test_case "corrupt payload raises only Malformed" `Quick
        test_corrupt_payload_only_malformed;
      Alcotest.test_case "negative serial rejected" `Quick test_negative_serial_rejected;
      Alcotest.test_case "encode rejects bad sizes" `Quick test_frame_encode_rejects_bad_sizes;
      Alcotest.test_case "decoder buffered accounting" `Quick test_decoder_buffered_accounting;
    ] )
