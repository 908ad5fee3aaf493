(* Tests for the wire primitives, the wire's shapes, and E2's two
   document codecs, including the qcheck roundtrip property each
   document codec must satisfy. *)

module Sval = Adgc_paper.Sval
module Wire = Adgc_serial.Wire
module Rotor_codec = Adgc_paper.Rotor_codec
module Doc_codec = Adgc_paper.Doc_codec

let rotor_roundtrip v = Rotor_codec.decode (Rotor_codec.encode v)

let doc_roundtrip v = Doc_codec.decode (Doc_codec.encode v)

let check = Alcotest.check

let sval = Alcotest.testable Sval.pp Sval.equal

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_varint_roundtrip () =
  let cases = [ 0; 1; -1; 63; 64; -64; 127; 128; 300; -300; 1 lsl 40; -(1 lsl 40); max_int; min_int + 1 ] in
  let w = Wire.Writer.create () in
  List.iter (Wire.Writer.varint w) cases;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  List.iter (fun v -> check Alcotest.int (string_of_int v) v (Wire.Reader.varint r)) cases;
  check Alcotest.bool "consumed all" true (Wire.Reader.at_end r)

let test_wire_varint_small_is_one_byte () =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w 5;
  check Alcotest.int "1 byte" 1 (String.length (Wire.Writer.contents w));
  let w2 = Wire.Writer.create () in
  Wire.Writer.varint w2 (-3);
  check Alcotest.int "negative small also 1 byte" 1 (String.length (Wire.Writer.contents w2))

let test_doc_int64_roundtrip () =
  let cases = [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xDEADBEEFL ] in
  let w = Wire.Writer.create () in
  List.iter (Doc_codec.write_int64 w) cases;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  List.iter (fun v -> check Alcotest.int64 (Int64.to_string v) v (Doc_codec.read_int64 r)) cases

let test_doc_float_roundtrip () =
  let cases = [ 0.0; -0.0; 1.5; -3.25; Float.max_float; Float.min_float; infinity; neg_infinity ] in
  let w = Wire.Writer.create () in
  List.iter (Doc_codec.write_float w) cases;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  List.iter (fun v -> check (Alcotest.float 0.0) (string_of_float v) v (Doc_codec.read_float r)) cases;
  (* nan compares unequal; check bits instead *)
  let w2 = Wire.Writer.create () in
  Doc_codec.write_float w2 Float.nan;
  let r2 = Wire.Reader.of_string (Wire.Writer.contents w2) in
  check Alcotest.bool "nan" true (Float.is_nan (Doc_codec.read_float r2))

let test_wire_string_roundtrip () =
  let cases = [ ""; "a"; "hello world"; String.make 1000 '\x00'; "\xff\xfe" ] in
  let w = Wire.Writer.create () in
  List.iter (Wire.Writer.string w) cases;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  List.iter (fun v -> check Alcotest.string "string" v (Wire.Reader.string r)) cases

let test_wire_truncated_fails () =
  let w = Wire.Writer.create () in
  Wire.Writer.string w "hello";
  let full = Wire.Writer.contents w in
  let cut = String.sub full 0 (String.length full - 2) in
  let r = Wire.Reader.of_string cut in
  match Wire.Reader.string r with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Wire.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Codecs: hand-picked documents *)

let samples =
  [
    Sval.Unit;
    Sval.Bool true;
    Sval.Bool false;
    Sval.Int 0;
    Sval.Int (-12345);
    Sval.Int max_int;
    Sval.Float 3.14159;
    Sval.Float (-0.0);
    Sval.Float infinity;
    Sval.Str "";
    Sval.Str "plain";
    Sval.Str "with <angle> & \"quotes\" and\nnewlines\x00\x7f";
    Sval.List [];
    Sval.List [ Sval.Int 1; Sval.Str "two"; Sval.Bool false ];
    Sval.Packed [];
    Sval.Packed [ 0; -1; 300; min_int; max_int ];
    Sval.Record ("empty", []);
    Sval.Record
      ( "node",
        [
          ("left", Sval.Record ("leaf", [ ("v", Sval.Int 1) ]));
          ("right", Sval.List [ Sval.Unit; Sval.Unit ]);
          ("name", Sval.Str "x&y<z>") ;
        ] );
  ]

let roundtrip_samples roundtrip name () =
  List.iter
    (fun v -> check sval name v (roundtrip v))
    samples

let test_nan_roundtrip () =
  List.iter
    (fun roundtrip ->
      match roundtrip (Sval.Float Float.nan) with
      | Sval.Float f -> check Alcotest.bool "nan" true (Float.is_nan f)
      | _ -> Alcotest.fail "expected float")
    [ rotor_roundtrip; doc_roundtrip ]

let test_rotor_is_much_larger () =
  let doc = Sval.List (List.init 100 (fun i -> Sval.Record ("o", [ ("v", Sval.Int i) ]))) in
  let r = String.length (Rotor_codec.encode doc) in
  let n = String.length (Doc_codec.encode doc) in
  if r < 10 * n then Alcotest.failf "rotor %d bytes vs doc %d bytes: expected >= 10x" r n

let test_rotor_checksum_detects_corruption () =
  let doc = Sval.Record ("r", [ ("a", Sval.Int 7) ]) in
  let enc = Rotor_codec.encode doc in
  (* Flip a payload character (the digit 7). *)
  let i = String.index enc '7' in
  let corrupted = Bytes.of_string enc in
  Bytes.set corrupted i '8';
  match Rotor_codec.decode (Bytes.to_string corrupted) with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Wire.Malformed { what; _ } ->
      check Alcotest.string "checksum error" "checksum mismatch" what

let test_doc_rejects_garbage () =
  List.iter
    (fun s ->
      match Doc_codec.decode s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Wire.Malformed _ -> ())
    [ ""; "\xff"; "\x06\x03\x00"; "\x05\x20abc" ]

let test_doc_rejects_trailing () =
  let enc = Doc_codec.encode (Sval.Int 1) ^ "\x00" in
  match Doc_codec.decode enc with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Wire.Malformed { what; _ } -> check Alcotest.string "trailing" "trailing bytes" what

let test_rotor_rejects_missing_checksum () =
  match Rotor_codec.decode "<soap:Envelope>..." with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Wire.Malformed _ -> ()

let test_doc_interning_shares_names () =
  (* 100 records of the same type: the name should be written once. *)
  let doc = Sval.List (List.init 100 (fun i -> Sval.Record ("very_long_record_type_name", [ ("field_name_also_long", Sval.Int i) ]))) in
  let bytes = String.length (Doc_codec.encode doc) in
  (* Non-interned lower bound would be 100 * (26+20) name bytes alone. *)
  check Alcotest.bool "interned" true (bytes < 1000)

(* ------------------------------------------------------------------ *)
(* qcheck: random document roundtrips *)

let gen_sval =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                return Sval.Unit;
                map (fun b -> Sval.Bool b) bool;
                map (fun i -> Sval.Int i) int;
                map (fun f -> Sval.Float f) float;
                map (fun s -> Sval.Str s) string_printable;
                map (fun l -> Sval.Packed l) (list_size (int_bound 6) int);
              ]
          in
          if n <= 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> Sval.List l) (list_size (int_bound 4) (self (n / 2)));
                map2
                  (fun name fields -> Sval.Record (name, fields))
                  (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) (self (n / 2))));
              ])
        (Int.min n 6))

let qcheck_roundtrip roundtrip name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300 gen_sval (fun v -> Sval.equal v (roundtrip v)))

let test_size_nodes () =
  check Alcotest.int "leaf" 1 (Sval.size_nodes Sval.Unit);
  check Alcotest.int "list" 3 (Sval.size_nodes (Sval.List [ Sval.Int 1; Sval.Int 2 ]));
  check Alcotest.int "record" 2 (Sval.size_nodes (Sval.Record ("r", [ ("a", Sval.Unit) ])))

(* ------------------------------------------------------------------ *)
(* Message payloads as documents: the reference trees of every payload
   (test/wire_reference.ml) must survive encode -> bytes -> decode ->
   match through both codecs, and damaged bytes must fail with
   [Wire.Malformed], never with anything else.  Payloads are compared
   through their canonical tree (maps re-sort on encode, so [=] on the
   OCaml values would be too strict about tree shape). *)

module Msg = Adgc_rt.Msg
module Net_codec = Adgc_serial.Net_codec
module Envelope = Adgc_net.Envelope
module Gather = Adgc_net.Gather
module Ref = Wire_reference
open Adgc_algebra

let gen_proc = QCheck2.Gen.(map Proc_id.of_int (int_bound 7))

let gen_oid =
  QCheck2.Gen.(
    map2 (fun owner serial -> Oid.make ~owner ~serial) gen_proc (int_bound 100))

let gen_ref = QCheck2.Gen.(map2 (fun src target -> Ref_key.make ~src ~target) gen_proc gen_oid)

let gen_oids = QCheck2.Gen.(list_size (int_bound 4) gen_oid)

let gen_detection_id =
  QCheck2.Gen.(map2 (fun initiator seq -> Detection_id.make ~initiator ~seq) gen_proc (int_bound 100))

(* A key or IC past one byte now and then, so the algebra's items are
   multi-byte varints too. *)
let gen_wide_ref =
  QCheck2.Gen.(
    map3
      (fun src owner serial ->
        Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial))
      (int_bound 300) (int_bound 300) (int_bound 100_000))

(* Entries draw their keys mostly from a small per-algebra pool, and
   their ICs from a few small ones and one wide one per algebra, so a
   key often lands on both sides: with equal ICs (one shared entry) or
   different ones (a conflict, written as two entries). *)
let gen_algebra =
  QCheck2.Gen.(
    bind
      (pair (list_size (int_range 1 3) (frequency [ (4, gen_ref); (1, gen_wide_ref) ])) (int_bound (1 lsl 40)))
      (fun (pool, wide_ic) ->
        map
          (List.fold_left
             (fun alg (is_src, key, ic) ->
               match Algebra.add alg (if is_src then Algebra.Source else Algebra.Target) key ~ic with
               | Algebra.Added alg -> alg
               | Algebra.Ic_conflict _ -> alg)
             Algebra.empty)
          (list_size (int_bound 6)
             (triple bool
                (frequency [ (3, oneofl pool); (1, gen_ref) ])
                (frequency [ (4, int_bound 2); (1, return wide_ic) ])))))

let gen_cdm =
  QCheck2.Gen.(
    map2
      (fun (id, algebra, frontier) (hops, budget) -> Cdm.make ~id ~algebra ~frontier ~hops ~budget)
      (triple gen_detection_id gen_algebra gen_ref)
      (pair (int_bound 20) (int_bound 64)))

module Btmsg = Adgc_baseline.Btmsg
module Hmsg = Adgc_baseline.Hmsg

let gen_bt =
  QCheck2.Gen.(
    let trace = map2 (fun initiator seq -> { Btmsg.initiator; seq }) gen_proc (int_bound 50) in
    oneof
      [
        map2
          (fun (trace, subject) visited -> Btmsg.Query { trace; subject; visited })
          (pair trace gen_ref)
          (list_size (int_bound 4) gen_ref);
        map2
          (fun (trace, subject) rooted ->
            Btmsg.Reply
              { trace; subject; verdict = (if rooted then Btmsg.Rooted else Btmsg.Cycle_back) })
          (pair trace gen_ref)
          bool;
      ])

let gen_hughes =
  QCheck2.Gen.(
    oneof
      [
        map (fun stamps -> Hmsg.Stamp stamps) (list_size (int_bound 4) (pair gen_oid (int_bound 100)));
        map (fun round_time -> Hmsg.Report { round_time }) (int_bound 10_000);
        map (fun value -> Hmsg.Threshold { value }) (int_bound 10_000);
      ])

(* An [Ext] body: a comparator's message, or any bytes at all. *)
let gen_ext_body =
  QCheck2.Gen.(
    oneof
      [
        map (Net_codec.encode_shape Btmsg.emit) gen_bt;
        map (Net_codec.encode_shape Hmsg.emit) gen_hughes;
        string_size (int_bound 12);
      ])

(* Ints of a packed run: mostly small, now and then near [max_int],
   where an unsigned varint takes its full nine bytes. *)
let gen_wide =
  QCheck2.Gen.(frequency [ (9, int_bound 100_000); (1, int_range (max_int - 1000) max_int) ])

(* A payload for an envelope to [dst]. *)
let gen_flat_payload dst =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (req_id, target) (args, stub_ic) -> Msg.Rmi_request { req_id; target; args; stub_ic })
          (pair (int_bound 1000) gen_oid)
          (pair gen_oids (int_bound 9));
        map2
          (fun (req_id, target) results -> Msg.Rmi_reply { req_id; target; results })
          (pair (int_bound 1000) gen_oid)
          gen_oids;
        map2
          (fun (notice_id, target) new_holder -> Msg.Export_notice { notice_id; target; new_holder })
          (pair (int_bound 1000) gen_oid)
          gen_proc;
        map2
          (fun (notice_id, target) new_holder -> Msg.Export_ack { notice_id; target; new_holder })
          (pair (int_bound 1000) gen_oid)
          gen_proc;
        (* A stub set goes to its targets' owner: every target is the
           destination's. *)
        map2
          (fun seqno entries ->
            Scaffold.new_set_stubs ~seqno
              (List.fold_left
                 (fun m (serial, ic) -> Oid.Map.add (Oid.make ~owner:dst ~serial) ic m)
                 Oid.Map.empty entries))
          (int_bound 1000)
          (list_size (int_bound 5) (pair (frequency [ (4, int_bound 100); (1, gen_wide) ]) (int_bound 9)));
        return Msg.Scion_probe;
        map (fun cdm -> Msg.Cdm cdm) gen_cdm;
        map2
          (fun id scions -> Msg.Cdm_delete { id; scions })
          gen_detection_id
          (list_size (int_bound 4) gen_ref);
        map (fun body -> Msg.Ext body) gen_ext_body;
      ])

let gen_payload dst =
  QCheck2.Gen.(
    frequency
      [
        (4, gen_flat_payload dst);
        (* Batches hold only reference-free payloads, as on the wire. *)
        ( 1,
          map
            (fun l -> Msg.Batch (List.filter (fun p -> Msg.payload_refs p = []) l))
            (list_size (int_bound 4) (gen_flat_payload dst)) );
      ])

let gen_any_payload = QCheck2.Gen.bind gen_proc gen_payload

let gen_msg =
  QCheck2.Gen.(
    bind gen_proc (fun dst ->
        map2
          (fun (src, seq) (sent_at, payload) -> Msg.make ~seq ~src ~dst ~sent_at payload)
          (pair gen_proc (int_bound 1000))
          (pair gen_wide (gen_payload dst))))

(* The damage properties below (truncation, corruption and the
   readers' parity) reach the packed runs' corner cases only if the
   payload generator makes them: CDMs with an entry on both sides,
   conflicting and not, and stub sets with entries. *)
let test_payload_generator_coverage () =
  let rand = Random.State.make [| 21 |] in
  let rec flat = function Msg.Batch l -> List.concat_map flat l | p -> [ p ] in
  let payloads = List.concat_map flat (QCheck2.Gen.generate ~rand ~n:2000 gen_any_payload) in
  let count p = List.length (List.filter p payloads) in
  let both_sides alg = List.exists (fun (k, _) -> (Algebra.ic alg Algebra.Target k <> None)) (Algebra.bindings alg Algebra.Source) in
  let conflict alg = Algebra.verdict alg = Algebra.Conflict in
  let conflicting = count (function Msg.Cdm c -> conflict c.Cdm.algebra | _ -> false) in
  let shared =
    count (function
      | Msg.Cdm c -> both_sides c.Cdm.algebra && not (conflict c.Cdm.algebra)
      | _ -> false)
  in
  let stub_sets =
    count (function Msg.New_set_stubs { serials; _ } -> Array.length serials > 0 | _ -> false)
  in
  let ext = count (function Msg.Ext _ -> true | _ -> false) in
  let at_least what n =
    check Alcotest.bool (Printf.sprintf "%s (%d of 2000)" what n) true (n >= 20)
  in
  at_least "CDMs with a conflicting entry" conflicting;
  at_least "CDMs with a shared entry" shared;
  at_least "non-empty stub sets" stub_sets;
  at_least "ext payloads" ext

let msg_equal a b = Sval.equal (Ref.msg_sval a) (Ref.msg_sval b)

(* A payload's document survives either document codec. *)
let qcheck_payload_roundtrip encode decode name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300 gen_any_payload (fun p ->
         Sval.equal (Ref.payload_sval p) (decode (encode (Ref.payload_sval p)))))

(* The real path: the shape's bytes, read back by the direct reader. *)
let direct read bytes =
  match Net_codec.Read.run read bytes with v -> Some v | exception Wire.Malformed _ -> None

let qcheck_envelope_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"qcheck msg envelope roundtrip (net), sized as written" ~count:300
       gen_msg (fun m ->
         let bytes = Net_codec.encode_shape Msg.emit m in
         Net_codec.size Msg.emit m = String.length bytes
         && match direct Msg.read bytes with Some m' -> msg_equal m m' | None -> false))

(* A message's bytes say where it ends, so every proper prefix is
   malformed — and reading one raises nothing else. *)
let qcheck_msg_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"msg read of every truncation is Malformed" ~count:200 gen_msg
       (fun m ->
         let bytes = Net_codec.encode_shape Msg.emit m in
         List.for_all
           (fun cut ->
             match Net_codec.Read.run Msg.read (String.sub bytes 0 cut) with
             | (_ : Msg.t) -> false
             | exception Wire.Malformed _ -> true)
           (List.init (String.length bytes) Fun.id)))

(* Damaged bytes: decoding may fail (with Malformed) or still yield a
   structurally valid sval — but it may raise nothing else. *)
let survives_damage decode bytes =
  match decode bytes with
  | (_ : Sval.t) -> ()
  | exception Wire.Malformed _ -> ()

let qcheck_truncation encode decode name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:100
       QCheck2.Gen.(pair gen_any_payload (int_bound 1000))
       (fun (p, cut) ->
         let bytes = encode (Ref.payload_sval p) in
         let cut = cut mod max 1 (String.length bytes) in
         survives_damage decode (String.sub bytes 0 cut);
         true))

let qcheck_corruption encode decode name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:100
       QCheck2.Gen.(triple gen_any_payload (int_bound 10_000) (int_range 1 255))
       (fun (p, pos, delta) ->
         let bytes = encode (Ref.payload_sval p) in
         let pos = pos mod String.length bytes in
         let corrupted = Bytes.of_string bytes in
         Bytes.set corrupted pos (Char.chr ((Char.code bytes.[pos] + delta) land 0xff));
         survives_damage decode (Bytes.to_string corrupted);
         true))

(* Strictness, on the real path: hand-laid message bytes, read by
   [Msg.read] — which must agree with the reference reader — and, in a
   [net_msg] envelope, by the socket path. *)

(* The socket path: the message inside a [net_msg] envelope, framed,
   reassembled and read as the transport reads a frame. *)
let socket_read bytes =
  let frames = Adgc_net.Frame.decoder () in
  let framed = Adgc_net.Frame.encode bytes in
  Adgc_net.Frame.feed_sub frames (Bytes.of_string framed) 0 (String.length framed);
  match Adgc_net.Frame.next frames with None -> None | Some frame -> direct Envelope.read frame

let rejected_bytes what bytes =
  check Alcotest.bool (what ^ ": Msg.read rejects") false (Option.is_some (direct Msg.read bytes));
  check Alcotest.bool (what ^ ": reference rejects") false (Option.is_some (Ref.msg_decode bytes));
  check Alcotest.bool (what ^ ": socket reader rejects") false
    (Option.is_some (socket_read (Ref.net_msg_header ^ bytes)))

(* [patch] damages bytes that no tree can express wrongly on its own:
   a miscounted or cut-off packed run. *)
let rejected_trees ?(patch = Fun.id) what trees = rejected_bytes what (patch (Ref.encode_trees trees))

(* The envelope's header run: from P0 to P1, seq 2, sent at tick 3. *)
let hdr = [ 0; 1; 2; 3 ]

let run ints = Ref.Packed (hdr @ ints)

let rejected ?patch what ints = rejected_trees ?patch what [ run ints ]

let accepted what (m : Msg.t) =
  let bytes = Ref.msg_bytes m in
  match (direct Msg.read bytes, Ref.msg_decode bytes) with
  | Some d, Some r ->
      check Alcotest.bool (what ^ ": Msg.read reads it back") true (msg_equal m d);
      check Alcotest.bool (what ^ ": reference reads it back") true (msg_equal m r)
  | _ -> Alcotest.failf "%s: a valid message was rejected" what

let p0 = Proc_id.of_int 0

let p1 = Proc_id.of_int 1

let msg payload = Msg.make ~seq:2 ~src:p0 ~dst:p1 ~sent_at:3 payload

(* The bytes of [Packed ints] (the tag, the count, the items) are its
   encoding as a tree of its own. *)
let run_bytes ints = Ref.encode_tree (Ref.Packed ints)

let find_run bytes run =
  let n = String.length run in
  let rec go i =
    if i + n > String.length bytes then Alcotest.fail "run not found in its own encoding"
    else if String.sub bytes i n = run then i
    else go (i + 1)
  in
  go 0

(* Replace the run's one-byte count (an unsigned varint); end the input
   one byte before the run does, inside its last item. *)
let recount ints count bytes =
  let at = find_run bytes (run_bytes ints) in
  assert (List.length ints < 128 && count < 128);
  String.sub bytes 0 (at + 1)
  ^ String.make 1 (Char.chr count)
  ^ String.sub bytes (at + 2) (String.length bytes - at - 2)

let cut_inside ints bytes =
  String.sub bytes 0 (find_run bytes (run_bytes ints) + String.length (run_bytes ints) - 1)

(* A batch of the payload's run, then a probe's: what a miscounted run
   would eat into. *)
let then_probe kind_fields = [ run [ 9; 2 ]; Ref.Packed kind_fields; Ref.Packed [ 5 ] ]

let cdm_header = [ 1; 2; 0; 1; 2; 3; 4 ]

let packed_runs_rejected () =
  let cdm ?patch what entries = rejected ?patch ("cdm: " ^ what) ((6 :: cdm_header) @ entries) in
  let stubs ?patch what ints = rejected ?patch ("stub set: " ^ what) (4 :: ints) in
  (* [src; owner; serial; ic * 4 + bits]: IC 4, on both sides. *)
  let entry = [ 1; 2; 3; 19 ] in
  (* Not whole entries: an algebra entry is four ints. *)
  cdm "run of 7 + 5" (entry @ [ 1 ]);
  cdm "run of 7 + 3" [ 1; 2; 3 ];
  cdm "the old five-int entry" [ 1; 2; 3; 4; 3 ];
  cdm "run of 7 + 6" [ 1; 2; 3; 19; 1; 2 ];
  rejected "cdm: a run shorter than its header" [ 6; 1; 2; 0; 1; 2; 3 ];
  rejected "cdm: no field at all" [ 6 ];
  stubs "half an entry" [ 5; 2 ];
  stubs "an entry and a half" [ 5; 2; 3; 4 ];
  stubs "no seqno" [];
  (* The count claims more items than bytes remain. *)
  let whole = hdr @ (6 :: cdm_header) @ entry in
  cdm ~patch:(recount whole 60) "count beyond the input" entry;
  stubs ~patch:(recount (hdr @ [ 4; 5; 6; 7 ]) 60) "count beyond the input" [ 5; 6; 7 ];
  (* The count overstates a batched run, which then eats the next
     constituent's bytes. *)
  let batched = (6 :: cdm_header) @ entry in
  rejected_trees
    ~patch:(recount batched (List.length batched + 3))
    "cdm: count overruns into the next payload" (then_probe batched);
  (* One item too many. *)
  rejected_trees
    ~patch:(recount batched (List.length batched + 1))
    "cdm: count one item past the run" (then_probe batched);
  rejected_trees ~patch:(recount [ 4; 5; 6; 7 ] 5) "stub set: count one item past the run"
    (then_probe [ 4; 5; 6; 7 ]);
  (* The input ends inside the run's last item (two-byte items, so
     the count still fits in what is left). *)
  let wide = [ 1000; 1000; 1000 ] in
  stubs ~patch:(cut_inside (hdr @ (4 :: wide))) "truncated run" wide;
  cdm ~patch:(cut_inside (hdr @ (6 :: cdm_header) @ wide @ [ 1000 ])) "truncated run" (wide @ [ 1000 ]);
  (* Presence bits must name a side. *)
  cdm "presence bits 0" [ 1; 2; 3; 16 ];
  (* One key, two ICs on the same side. *)
  cdm "two source ICs" [ 1; 2; 3; 17; 1; 2; 3; 21 ];
  cdm "two target ICs" [ 1; 2; 3; 18; 1; 2; 3; 22 ];
  cdm "a shared entry, then a second target IC" [ 1; 2; 3; 19; 1; 2; 3; 22 ];
  (* A serial past [max_int]: the first at [max_int], the next one
     past it. *)
  stubs "a serial past max_int" [ 5; max_int; 0; 0; 0 ];
  (* The other payloads' runs: fixed fields, then whole entries. *)
  let other what name ints = rejected (name ^ ": " ^ what) ints in
  other "run of 3" "rmi_request" [ 0; 1; 0; 2 ];
  other "half an argument" "rmi_request" [ 0; 1; 0; 2; 5; 1 ];
  other "run of 2" "rmi_reply" [ 1; 1; 0 ];
  other "half a result" "rmi_reply" [ 1; 1; 0; 2; 1 ];
  other "run of 3" "export_notice" [ 2; 1; 0; 2 ];
  other "run of 5" "export_ack" [ 3; 1; 0; 2; 0; 0 ];
  other "run of 1" "cdm_delete" [ 7; 0 ];
  other "two thirds of a scion" "cdm_delete" [ 7; 0; 4; 1; 1 ];
  other "a field" "scion_probe" [ 5; 0 ];
  other "no count" "batch" [ 9 ];
  other "two counts" "batch" [ 9; 1; 1 ];
  rejected_trees "ext: a field in its run" [ run [ 8; 0 ]; Ref.Str "x" ];
  (* Well-formed runs read back, a conflicting entry pair included. *)
  let key = Ref_key.make ~src:p1 ~target:(Oid.make ~owner:p0 ~serial:3) in
  let algebra =
    Algebra.add_exn (Algebra.add_exn Algebra.empty Algebra.Source key ~ic:4) Algebra.Target key ~ic:5
  in
  let id = Detection_id.make ~initiator:p1 ~seq:2 in
  accepted "a conflicting entry pair"
    (msg (Msg.Cdm (Cdm.make ~id ~algebra ~frontier:key ~hops:3 ~budget:4)));
  let targets serials =
    List.fold_left (fun m (serial, ic) -> Oid.Map.add (Oid.make ~owner:p1 ~serial) ic m) Oid.Map.empty serials
  in
  accepted "a stub set" (msg (Scaffold.new_set_stubs ~seqno:5 (targets [ (1, 2); (3, 4) ])));
  accepted "a stub set of wide gaps"
    (msg
       (Scaffold.new_set_stubs ~seqno:5
          (targets [ (0, 0); (1, 1); (1000, 2); (max_int - 1, 3); (max_int, 4) ])));
  accepted "an empty stub set" (msg (Msg.New_set_stubs { seqno = 6; serials = [||]; ics = [||] }))

(* An [Ext] body is a string after the run: opaque, but still
   length-checked against the input like any other. *)
let ext_rejected () =
  let body = "opaque body" in
  let str_bytes = Ref.encode_tree (Ref.Str body) in
  let trees = [ run [ 8 ]; Ref.Str body ] in
  let cut bytes = String.sub bytes 0 (find_run bytes str_bytes + String.length str_bytes - 1) in
  (* The body's one-byte length (a zigzag varint) claims 60 bytes. *)
  let overlong bytes =
    let at = find_run bytes str_bytes in
    String.sub bytes 0 (at + 1)
    ^ String.make 1 (Char.chr (2 * 60))
    ^ String.sub bytes (at + 2) (String.length bytes - at - 2)
  in
  rejected_trees ~patch:cut "ext: truncated body" trees;
  rejected_trees ~patch:overlong "ext: body length past the input" trees;
  rejected_trees "ext: no body" [ run [ 8 ] ];
  rejected_trees "ext: body not a string" [ run [ 8 ]; Ref.Int 3 ];
  rejected_trees "ext: a second body" [ run [ 8 ]; Ref.Str body; Ref.Str body ];
  accepted "ext" (msg (Msg.Ext body));
  accepted "ext carrying a back-tracing reply"
    (msg
       (Msg.Ext
          (Net_codec.encode_shape Btmsg.emit
             (Btmsg.Reply
                {
                  trace = { Btmsg.initiator = p0; seq = 1 };
                  subject = Ref_key.make ~src:p1 ~target:(Oid.make ~owner:p0 ~serial:3);
                  verdict = Btmsg.Cycle_back;
                }))))

let test_payload_decoder_rejects () =
  (* Kinds past the last. *)
  List.iter (fun k -> rejected (Printf.sprintf "kind %d" k) [ k ]) [ 10; 11; 127; 128; 1 lsl 40 ];
  (* The envelope run: the header and a kind at least. *)
  rejected_trees "a header and no kind" [ Ref.Packed hdr ];
  rejected_trees "a run of 3" [ Ref.Packed [ 0; 1; 2 ] ];
  rejected_trees "an empty run" [ Ref.Packed [] ];
  rejected_trees "no run at all" [];
  (* The tagged framings the run replaced. *)
  rejected_trees "the old envelope record"
    [ Ref.Rec [ Ref.Packed hdr; Ref.Case (5, []) ] ];
  rejected_trees "the old header run, then a tagged payload" [ Ref.Packed hdr; Ref.Case (5, []) ];
  rejected_trees "the old tagged envelope header"
    [ Ref.Rec [ Ref.Int 0; Ref.Int 1; Ref.Int 2; Ref.Int 3; Ref.Case (5, []) ] ];
  (* Batches never nest, nor does a constituent run go empty. *)
  rejected_trees "nested batch" [ run [ 9; 1 ]; Ref.Packed [ 9; 0 ] ];
  rejected_trees "an empty batched run" [ run [ 9; 1 ]; Ref.Packed [] ];
  rejected_trees "a batch one constituent short" [ run [ 9; 2 ]; Ref.Packed [ 5 ] ];
  rejected_trees "a batched constituent that is not a run" [ run [ 9; 1 ]; Ref.Case (5, []) ];
  (* Nothing after the message. *)
  rejected_trees "a trailing run" [ run [ 5 ]; Ref.Packed [ 5 ] ];
  rejected_bytes "a trailing byte" (Ref.encode_trees [ run [ 5 ] ] ^ "\x00");
  (* An unsigned varint is at most nine bytes and never past
     [max_int]. *)
  let header_bytes = String.sub (Ref.encode_trees [ run [ 5 ] ]) 0 6 in
  rejected_bytes "a kind past max_int" (header_bytes ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x40");
  rejected_bytes "a ten-byte kind" (header_bytes ^ "\x85\x80\x80\x80\x80\x80\x80\x80\x80\x00");
  accepted "a nine-byte seq" (Msg.make ~seq:max_int ~src:p0 ~dst:p1 ~sent_at:3 Msg.Scion_probe);
  packed_runs_rejected ();
  ext_rejected ();
  (* A valid batch of two control payloads decodes. *)
  accepted "batch"
    (msg
       (Msg.Batch
          [
            Msg.Scion_probe;
            Msg.Ext "x";
            Msg.New_set_stubs { seqno = 3; serials = [| 2 |]; ics = [| 0 |] };
          ]))

(* Only reference-free control traffic is ever batched, so a batch
   whose constituent carries references is forged input. *)
let test_batch_with_references_rejected () =
  let reply = Msg.Rmi_reply { req_id = 3; target = Oid.make ~owner:p1 ~serial:2; results = [] } in
  accepted "the reply alone" (msg reply);
  rejected_trees "a batch holding it" (Ref.msg_trees (msg (Msg.Batch [ Msg.Scion_probe; reply ])))

(* The writer refuses what the run cannot hold: a negative int, a stub
   set whose serials do not strictly ascend (a negative gap), and one
   with more serials than ICs or fewer.  An algebra is its run, so what
   its run cannot hold (a negative id or IC, an IC past 60 bits) is
   refused where it would enter, by [Algebra.add]. *)
let test_writer_rejects () =
  let refused what (m : Msg.t) =
    (match Net_codec.size Msg.emit m with
    | _ -> Alcotest.failf "%s: sized" what
    | exception Invalid_argument _ -> ());
    match Net_codec.encode_shape Msg.emit m with
    | _ -> Alcotest.failf "%s: written" what
    | exception Invalid_argument _ -> ()
  in
  let key = Ref_key.make ~src:p0 ~target:(Oid.make ~owner:p1 ~serial:2) in
  let add_refused what side key ic =
    match Algebra.add Algebra.empty side key ~ic with
    | _ -> Alcotest.failf "%s: added" what
    | exception Invalid_argument _ -> ()
  in
  refused "an unsequenced envelope" (Msg.make ~seq:(-1) ~src:p0 ~dst:p1 ~sent_at:3 Msg.Scion_probe);
  refused "a negative stub IC"
    (msg (Msg.New_set_stubs { seqno = 1; serials = [| 2 |]; ics = [| -1 |] }));
  add_refused "a negative algebra IC" Algebra.Source key (-1);
  add_refused "an algebra IC past 60 bits" Algebra.Source key (1 lsl 61);
  add_refused "a target IC of 2^60" Algebra.Target key (1 lsl 60);
  add_refused "a negative serial in an algebra key" Algebra.Source
    { key with Ref_key.target = { key.Ref_key.target with Oid.serial = -1 } }
    0;
  refused "a negative request id"
    (msg (Msg.Rmi_reply { req_id = -1; target = Oid.make ~owner:p1 ~serial:2; results = [] }));
  let descending = Msg.New_set_stubs { seqno = 1; serials = [| 2; 1 |]; ics = [| 0; 0 |] } in
  refused "a stub set whose serials descend" (msg descending);
  refused "a batched stub set whose serials descend" (msg (Msg.Batch [ Msg.Scion_probe; descending ]));
  refused "a stub set listing a serial twice"
    (msg (Msg.New_set_stubs { seqno = 1; serials = [| 2; 2 |]; ics = [| 0; 0 |] }));
  refused "a stub set with an IC short"
    (msg (Msg.New_set_stubs { seqno = 1; serials = [| 1; 2 |]; ics = [| 0 |] }))

(* ------------------------------------------------------------------ *)
(* Wire identity: the shapes in lib/ against the reference builders in
   [Wire_reference] — the same bytes and the same byte counts — and
   the direct readers exactly as strict as the reference. *)

module Summary = Adgc_snapshot.Summary

let same_bytes shape bytes v =
  String.equal (Net_codec.encode_shape shape v) bytes && Net_codec.size shape v = String.length bytes

let qcheck_msg_wire_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"msg shape = reference bytes and size" ~count:500 gen_msg (fun m ->
         same_bytes Msg.emit (Ref.msg_bytes m) m
         && same_bytes Msg.emit_payload (Ref.payload_bytes m.Msg.payload) m.Msg.payload))

let qcheck_comparator_wire_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"comparator body shapes = reference bytes" ~count:500
       QCheck2.Gen.(pair gen_bt gen_hughes)
       (fun (bt, h) ->
         same_bytes Btmsg.emit (Ref.btmsg_bytes bt) bt && same_bytes Hmsg.emit (Ref.hmsg_bytes h) h))

let qcheck_cdm_wire_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cdm and algebra items = reference ints" ~count:500 gen_cdm
       (fun cdm ->
         same_bytes
           (fun s c ->
             Net_codec.packed s (Cdm.items c);
             Cdm.emit_items s c)
           (Ref.encode_tree (Ref.Packed (Ref.cdm_ints cdm)))
           cdm
         && same_bytes
              (fun s alg ->
                Net_codec.packed s (Algebra.compact_length alg);
                Algebra.emit_entries s alg)
              (Ref.encode_tree (Ref.Packed (Ref.algebra_entries cdm.Cdm.algebra)))
              cdm.Cdm.algebra))

(* Sizing a message allocates the same few words whatever the size of
   a CDM's algebra or of a stub set: no tree, no buffer, no per-entry
   interning. *)
let test_cdm_size_allocation_is_flat () =
  let cdm entries =
    let algebra =
      List.fold_left
        (fun alg i ->
          let key =
            Ref_key.make ~src:(Proc_id.of_int (i mod 7))
              ~target:(Oid.make ~owner:(Proc_id.of_int ((i + 1) mod 7)) ~serial:i)
          in
          Algebra.add_exn (Algebra.add_exn alg Algebra.Source key ~ic:i) Algebra.Target key
            ~ic:(i + (i mod 2)))
        Algebra.empty (List.init entries Fun.id)
    in
    msg
      (Msg.Cdm
         (Cdm.make
            ~id:(Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:3)
            ~algebra
            ~frontier:(Ref_key.make ~src:(Proc_id.of_int 2) ~target:(Oid.make ~owner:(Proc_id.of_int 3) ~serial:4))
            ~hops:5 ~budget:6))
  in
  let stubs n =
    msg
      (Msg.New_set_stubs { seqno = 9; serials = Array.init n (fun i -> 3 * i); ics = Array.init n Fun.id })
  in
  let words m =
    ignore (Net_codec.size Msg.emit m : int);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Net_codec.size Msg.emit m) : int);
    Gc.minor_words () -. before
  in
  check (Alcotest.float 0.0) "same allocation for 2 and 300 algebra entries" (words (cdm 2))
    (words (cdm 300));
  check (Alcotest.float 0.0) "same allocation for 2 and 300 stub set targets" (words (stubs 2))
    (words (stubs 300))

module Sref = Summary_reference

let gen_summary =
  let open QCheck2.Gen in
  let gen_scion =
    map2
      (fun (key, scion_ic, stubs) (target_locally_reachable, last_invoked) ->
        { Sref.key; scion_ic; stubs_from = Oid.Set.of_list stubs; target_locally_reachable; last_invoked })
      (triple gen_ref (int_bound 300) (list_size (int_bound 5) gen_oid))
      (pair bool (int_bound 100_000))
  in
  let gen_stub =
    map2
      (fun (target, stub_ic) (keys, local_reach) ->
        { Sref.target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })
      (pair gen_oid (int_range 0 300))
      (pair (list_size (int_bound 4) gen_ref) bool)
  in
  map2
    (fun (proc, taken_at) (scions, stubs) -> Sref.make ~proc ~taken_at ~scions ~stubs)
    (pair gen_proc (int_bound 1_000_000))
    (pair (list_size (int_bound 8) gen_scion) (list_size (int_bound 8) gen_stub))

let same_view a b =
  match (a, b) with
  | Some a, Some b -> Sref.equal (Sref.of_view a) b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let qcheck_summary_wire_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"summary bytes read back: the view and the reference reader agree"
       ~count:300 gen_summary (fun s ->
         let bytes = Sref.encode s in
         Option.equal Sref.equal (Sref.decode bytes) (Some s)
         && same_view (Summary.of_bytes bytes) (Some s)
         && Option.map Summary.bytes (Summary.of_bytes bytes) = Some bytes))

(* Every strict prefix of a snapshot is rejected (the reader raises
   nothing), and a single corrupted byte is read exactly as the
   reference reader reads it — rejected, or accepted as the same
   summary. *)
let qcheck_summary_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"summary index rejects every truncation" ~count:100 gen_summary
       (fun s ->
         let bytes = Sref.encode s in
         List.for_all
           (fun cut -> Summary.of_bytes (String.sub bytes 0 cut) = None)
           (List.init (String.length bytes) Fun.id)))

let qcheck_summary_corruption =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"summary index of a corrupted byte = the reference reader's" ~count:300
       QCheck2.Gen.(triple gen_summary (int_bound 10_000) (int_range 1 255))
       (fun (s, pos, delta) ->
         let bytes = Sref.encode s in
         let pos = pos mod String.length bytes in
         let corrupted = Bytes.of_string bytes in
         Bytes.set corrupted pos (Char.chr ((Char.code bytes.[pos] + delta) land 0xff));
         let corrupted = Bytes.to_string corrupted in
         same_view (Summary.of_bytes corrupted) (Sref.decode corrupted)))

(* ------------------------------------------------------------------ *)
(* Summary view: lookups and accessors behave as the maps of a record
   form.  The model folds [Map.add] over the same entries, so a
   repeated key keeps its last entry, as [Summary_reference.make]
   does. *)

let gen_summary_parts =
  let open QCheck2.Gen in
  (* Narrow ranges, so repeated keys and targets are common. *)
  let small_oid = map2 (fun o s -> Oid.make ~owner:(Proc_id.of_int o) ~serial:s) (int_bound 2) (int_bound 3) in
  let small_ref = map2 (fun src target -> Ref_key.make ~src:(Proc_id.of_int src) ~target) (int_bound 2) small_oid in
  let scion =
    map3
      (fun key (scion_ic, last_invoked) (stubs, root) ->
        { Sref.key; scion_ic; stubs_from = Oid.Set.of_list stubs; target_locally_reachable = root; last_invoked })
      small_ref (pair (int_bound 5) (int_bound 50)) (pair (list_size (int_bound 3) small_oid) bool)
  in
  let stub =
    map3
      (fun target stub_ic (keys, local_reach) ->
        { Sref.target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })
      small_oid (int_bound 5) (pair (list_size (int_bound 3) small_ref) bool)
  in
  pair (map Proc_id.of_int (int_bound 2)) (pair (list_size (int_bound 12) scion) (list_size (int_bound 12) stub))

let summary_of (proc, (scions, stubs)) =
  Option.get (Summary.of_bytes (Sref.encode (Sref.make ~proc ~taken_at:0 ~scions ~stubs)))

let print_summary_parts parts = Format.asprintf "%a" Sref.pp (summary_of parts)

module Scion_model = Ref_key.Map
module Stub_model = Oid.Map

let model (_, (scions, stubs)) =
  ( List.fold_left (fun m (s : Sref.scion_info) -> Scion_model.add s.Sref.key s m) Scion_model.empty scions,
    List.fold_left (fun m (s : Sref.stub_info) -> Stub_model.add s.Sref.target s m) Stub_model.empty stubs )

(* Every key of the narrow ranges, present or not. *)
let small_keys =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun o ->
          List.init 4 (fun s ->
              Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int o) ~serial:s)))
        [ 0; 1; 2 ])
    [ 0; 1; 2 ]

let qcheck_summary_lookup_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"summary lookups and accessors = map model" ~count:500
       ~print:print_summary_parts gen_summary_parts (fun parts ->
         let t = summary_of parts and scions, stubs = model parts in
         let scion_agrees k =
           match (Summary.find_scion t k, Scion_model.find_opt k scions) with
           | Some i, Some (m : Sref.scion_info) ->
               Ref_key.equal (Summary.scion_key t i) k
               && Summary.scion_ic t i = m.Sref.scion_ic
               && Summary.target_locally_reachable t i = m.Sref.target_locally_reachable
               && Summary.last_invoked t i = m.Sref.last_invoked
               && Oid.Set.equal (Sref.stubs_from t i) m.Sref.stubs_from
           | None, None -> true
           | Some _, None | None, Some _ -> false
         in
         let stub_agrees target =
           match (Summary.find_stub t target, Stub_model.find_opt target stubs) with
           | Some j, Some (m : Sref.stub_info) ->
               Oid.equal (Summary.stub_target t j) target
               && Summary.stub_ic t j = m.Sref.stub_ic
               && Summary.local_reach t j = m.Sref.local_reach
               && Ref_key.Set.equal (Sref.scions_to t j) m.Sref.scions_to
           | None, None -> true
           | Some _, None | None, Some _ -> false
         in
         let after_agrees k =
           let upto = Scion_model.filter (fun k' _ -> Ref_key.compare k' k <= 0) scions in
           Summary.scion_after t k = Scion_model.cardinal upto
         in
         List.for_all
           (fun k -> scion_agrees k && stub_agrees k.Ref_key.target && after_agrees k)
           small_keys
         && Summary.counts t = (Scion_model.cardinal scions, Stub_model.cardinal stubs)))

(* The index pass accepts entries only in strictly ascending order:
   the model's entries written in descending order, or with one entry
   repeated, are rejected whenever that changes the bytes. *)
let qcheck_summary_order_enforced =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"summary index rejects unsorted or repeated entries" ~count:500
       ~print:print_summary_parts gen_summary_parts (fun ((proc, _) as parts) ->
         let scions, stubs = model parts in
         let scions = List.map snd (Scion_model.bindings scions)
         and stubs = List.map snd (Stub_model.bindings stubs) in
         let reads ~scions ~stubs =
           Summary.of_bytes (Sref.encode_entries ~proc ~taken_at:0 scions stubs) <> None
         in
         let twice = function [] -> [] | x :: rest -> x :: x :: rest in
         reads ~scions ~stubs
         && reads ~scions:(List.rev scions) ~stubs = (List.length scions <= 1)
         && reads ~scions ~stubs:(List.rev stubs) = (List.length stubs <= 1)
         && reads ~scions:(twice scions) ~stubs = (scions = [])
         && reads ~scions ~stubs:(twice stubs) = (stubs = [])))

(* The wire can carry a repeated scion key or stub target (no encoder
   in lib/ writes one): the index pass rejects it, as the reference
   reader does. *)
let test_summary_rejects_repeated_key () =
  let key = Ref_key.make ~src:(Proc_id.of_int 1) ~target:(Oid.make ~owner:(Proc_id.of_int 2) ~serial:3) in
  let other = Ref_key.make ~src:(Proc_id.of_int 0) ~target:(Oid.make ~owner:(Proc_id.of_int 2) ~serial:9) in
  let target = Oid.make ~owner:(Proc_id.of_int 4) ~serial:5 in
  let scion k ic =
    { Sref.key = k; scion_ic = ic; stubs_from = Oid.Set.singleton target; target_locally_reachable = false; last_invoked = ic }
  in
  let stub ic = { Sref.target; stub_ic = ic; scions_to = Ref_key.Set.singleton key; local_reach = ic = 2 } in
  let bytes scions stubs = Sref.encode_entries ~proc:(Proc_id.of_int 2) ~taken_at:40 scions stubs in
  let rejected what b =
    check Alcotest.bool what true (Summary.of_bytes b = None);
    check Alcotest.bool (what ^ ": the reference reader agrees") true (Sref.decode b = None)
  in
  rejected "repeated scion key" (bytes [ scion other 7; scion key 1; scion key 2 ] [ stub 1 ]);
  rejected "repeated stub target" (bytes [ scion other 7; scion key 2 ] [ stub 1; stub 2 ]);
  match Summary.of_bytes (bytes [ scion other 7; scion key 2 ] [ stub 2 ]) with
  | None -> Alcotest.fail "the deduplicated summary is well formed"
  | Some t ->
      check Alcotest.(pair int int) "one entry per key" (2, 1) (Summary.counts t);
      check Alcotest.(list int) "scions ascend" [ 7; 2 ]
        (List.init 2 (fun i -> Summary.scion_ic t i));
      check Alcotest.(option int) "stub found" (Some 2)
        (Option.map (Summary.stub_ic t) (Summary.find_stub t target))

(* ------------------------------------------------------------------ *)
(* Messages and socket envelopes: the direct readers accept exactly
   what the reference tree path accepts, with the same value, under
   every truncation and random single-byte corruptions. *)

let gen_status =
  QCheck2.Gen.(
    map2
      (fun (st_rank, st_tick, st_ready) (st_reclaimed, st_wire_sent, st_dup_ignored) ->
        {
          Envelope.st_rank;
          st_tick;
          st_ready;
          st_reclaimed;
          st_wire_sent;
          st_wire_received = st_wire_sent / 2;
          st_dup_ignored;
        })
      (triple (int_bound 7) (int_bound 100_000) bool)
      (triple gen_oids (int_bound 1000) (int_bound 50)))

let gen_node_state =
  QCheck2.Gen.(
    map2
      (fun (rank, tick, objects) (stubs, scions, (reclaimed, counters)) ->
        { Gather.rank; tick; objects; stubs; scions; reclaimed; counters })
      (triple (int_bound 7) (int_bound 100_000)
         (list_size (int_bound 3)
            (map2 (fun oid (refs, rooted) -> { Gather.oid; refs; rooted }) gen_oid (pair gen_oids bool))))
      (triple
         (list_size (int_bound 3) (map2 (fun target stub_ic -> { Gather.target; stub_ic }) gen_oid (int_bound 9)))
         (list_size (int_bound 3)
            (map2
               (fun key (scion_ic, confirmed) -> { Gather.key; scion_ic; confirmed })
               gen_ref (pair (int_bound 9) bool)))
         (pair gen_oids
            (list_size (int_bound 3)
               (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) gen_wide)))))

let gen_envelope =
  QCheck2.Gen.(
    oneof
      [
        map (fun m -> Envelope.Net_msg m) gen_msg;
        map3 (fun rank procs seed -> Envelope.Hello { rank; procs; seed }) (int_bound 7) (int_bound 8) int;
        map (fun tick -> Envelope.Heartbeat { tick }) (int_bound 100_000);
        map (fun st -> Envelope.Status st) gen_status;
        map (fun ns -> Envelope.State ns) gen_node_state;
        map (fun rank -> Envelope.Drop_peer rank) (int_bound 7);
        oneofl
          [ Envelope.Start; Envelope.Status_req; Envelope.State_req; Envelope.Shutdown; Envelope.Bye ];
      ])

let envelope_equal a b = Sval.equal (Ref.envelope_sval a) (Ref.envelope_sval b)

let qcheck_envelope_wire_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"envelope shape = reference bytes, and read inverts emit" ~count:300
       gen_envelope (fun e ->
         same_bytes Envelope.emit (Ref.envelope_bytes e) e
         &&
         match direct Envelope.read (Net_codec.encode_shape Envelope.emit e) with
         | Some e' -> envelope_equal e e'
         | None -> false))

(* The bytes one message of each payload kind costs, pinned: what the
   simulator charges it and, behind the envelope's three-byte run [3],
   what a socket frame carries.  A one-target stub set took 88 bytes
   when every record and field name travelled as text, 20 while every
   header int carried its own tag, and 17 while the header, the
   payload's case and its fields were three tagged parts.  The
   messages are the wire bench section's samples, in case order. *)
let test_golden_sizes () =
  let pinned = [ 13; 12; 11; 11; 10; 7; 18; 12; 13; 14 ] in
  check Alcotest.int "one sample per kind" (Array.length Msg.kinds)
    (List.length Adgc_bench.Bench_wire.samples);
  let framed what bytes (m : Msg.t) =
    check Alcotest.int what bytes (Net_codec.size Msg.emit m);
    check Alcotest.int (what ^ " in a socket frame") (bytes + 3)
      (String.length (Net_codec.encode_shape Envelope.emit (Envelope.Net_msg m)))
  in
  List.iter2
    (fun (m : Msg.t) bytes -> framed (Msg.kind m.Msg.payload) bytes m)
    Adgc_bench.Bench_wire.samples pinned;
  (* Eight entries each: what one more stub or algebra entry costs. *)
  List.iter2
    (fun (m : Msg.t) bytes -> framed (Msg.kind m.Msg.payload ^ " of eight") bytes m)
    Adgc_bench.Bench_wire.wide_samples [ 24; 46 ]

(* The bytes of one envelope of each kind, pinned: one packed run,
   [kind; fields...] (tag 8, the count, the items), then a [Net_msg]'s
   message or a [State]'s five runs and counter names. *)
let test_envelope_golden_bytes () =
  let hex s =
    String.concat " " (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  in
  let oid owner serial = Oid.make ~owner:(Proc_id.of_int owner) ~serial in
  let pinned =
    [
      (Envelope.Hello { rank = 2; procs = 4; seed = -42 }, "08 05 00 02 04 01 29");
      (Envelope.Start, "08 01 01");
      (Envelope.Heartbeat { tick = 300 }, "08 02 02 ac 02");
      (Envelope.Net_msg (msg Msg.Scion_probe), "08 01 03 08 05 00 01 02 03 05");
      (Envelope.Status_req, "08 01 04");
      ( Envelope.Status
          {
            st_rank = 1;
            st_tick = 999;
            st_ready = true;
            st_reclaimed = [ oid 1 3 ];
            st_wire_sent = 40;
            st_wire_received = 38;
            st_dup_ignored = 2;
          },
        "08 09 05 01 e7 07 01 28 26 02 01 03" );
      (Envelope.State_req, "08 01 06");
      ( Envelope.State
          {
            Gather.rank = 1;
            tick = 9;
            objects = [ { Gather.oid = oid 1 0; refs = [ oid 0 1 ]; rooted = true } ];
            stubs = [ { Gather.target = oid 0 1; stub_ic = 2 } ];
            scions =
              [ { Gather.key = Ref_key.make ~src:p0 ~target:(oid 1 0); scion_ic = 1; confirmed = true } ];
            reclaimed = [ oid 1 9 ];
            counters = [ ("lgc.runs", 3) ];
          },
        "08 01 07 08 08 01 09 01 00 01 01 00 01 08 03 00 01 02 08 05 00 01 00 01 01 08 02 01 09 08 01 03 \
         05 10 6c 67 63 2e 72 75 6e 73" );
      (Envelope.Drop_peer 2, "08 02 08 02");
      (Envelope.Shutdown, "08 01 09");
      (Envelope.Bye, "08 01 0a");
    ]
  in
  check Alcotest.int "one envelope per kind" 11
    (List.length (List.sort_uniq compare (List.map (fun (e, _) -> Envelope.kind e) pinned)));
  List.iter
    (fun (e, bytes) ->
      let written = Net_codec.encode_shape Envelope.emit e in
      check Alcotest.string (Envelope.kind e) bytes (hex written);
      check Alcotest.int (Envelope.kind e ^ " sized as written") (String.length written)
        (Net_codec.size Envelope.emit e);
      check Alcotest.bool (Envelope.kind e ^ " read back") true
        (match direct Envelope.read written with Some e' -> envelope_equal e e' | None -> false))
    pinned

(* A run holds no negative int: the envelope writer refuses one where
   it would stand (only [Hello]'s seed may be negative), in the
   counter as in the sizer. *)
let test_envelope_writer_rejects () =
  let refused what e =
    (match Net_codec.size Envelope.emit e with
    | _ -> Alcotest.failf "%s: sized" what
    | exception Invalid_argument _ -> ());
    match Net_codec.encode_shape Envelope.emit e with
    | _ -> Alcotest.failf "%s: written" what
    | exception Invalid_argument _ -> ()
  in
  refused "a negative rank" (Envelope.Hello { rank = -1; procs = 4; seed = 42 });
  refused "a negative tick" (Envelope.Heartbeat { tick = -1 });
  refused "a negative counter"
    (Envelope.State
       {
         Gather.rank = 0;
         tick = 0;
         objects = [];
         stubs = [];
         scions = [];
         reclaimed = [];
         counters = [ ("x", -1) ];
       });
  List.iter
    (fun seed ->
      let e = Envelope.Hello { rank = 0; procs = 1; seed } in
      check Alcotest.bool (Printf.sprintf "seed %d reads back" seed) true
        (match direct Envelope.read (Net_codec.encode_shape Envelope.emit e) with
        | Some e' -> envelope_equal e e'
        | None -> false))
    [ 0; -1; 1; min_int; max_int ]

(* Strictness of the socket reader on hand-laid runs, which the
   reference must refuse too: a kind out of range, a run that is not
   exactly the kind's fields, a flag other than 0 or 1, a ragged or
   miscounted gathered state, and the tagged case header the run
   replaced. *)
let test_envelope_reader_rejects () =
  let refused what trees =
    let bytes = Ref.encode_trees trees in
    check Alcotest.bool (what ^ ": Envelope.read rejects") false (Option.is_some (direct Envelope.read bytes));
    check Alcotest.bool (what ^ ": reference rejects") false (Option.is_some (Ref.envelope_decode bytes))
  in
  let run l = Ref.Packed l in
  let state_runs = [ run [ 1; 9 ]; run []; run []; run []; run [] ] in
  refused "an empty run" [ run [] ];
  refused "kind 11" [ run [ 11 ] ];
  refused "kind 2^40" [ run [ 1 lsl 40 ] ];
  refused "start with a field" [ run [ 1; 0 ] ];
  refused "heartbeat with no tick" [ run [ 2 ] ];
  refused "hello one field short" [ run [ 0; 1; 4; 0 ] ];
  refused "hello with a sign of 2" [ run [ 0; 1; 4; 2; 5 ] ];
  refused "status with ready 2" [ run [ 5; 1; 9; 2; 0; 0; 0 ] ];
  refused "status with half an id" [ run [ 5; 1; 9; 1; 0; 0; 0; 3 ] ];
  refused "status one field short" [ run [ 5; 1; 9; 1; 0; 0 ] ];
  refused "net_msg with no message" [ run [ 3 ] ];
  refused "net_msg with a field in its run" (run [ 3; 0 ] :: Ref.msg_trees (msg Msg.Scion_probe));
  refused "state with no runs" [ run [ 7 ] ];
  refused "state one run short" (run [ 7 ] :: List.tl state_runs);
  refused "state with a field in its run" (run [ 7; 0 ] :: state_runs);
  refused "state: an object whose refs overrun"
    (run [ 7 ] :: run [ 1; 9; 1; 0; 1; 2; 0; 1 ] :: List.tl state_runs);
  refused "state: an object cut short" (run [ 7 ] :: run [ 1; 9; 1; 0; 1 ] :: List.tl state_runs);
  refused "state: rooted 2" (run [ 7 ] :: run [ 1; 9; 1; 0; 2; 0 ] :: List.tl state_runs);
  refused "state: a ragged stub run" [ run [ 7 ]; run [ 1; 9 ]; run [ 0; 1 ]; run []; run []; run [] ];
  refused "state: a ragged scion run" [ run [ 7 ]; run [ 1; 9 ]; run []; run [ 0; 1; 0; 1 ]; run []; run [] ];
  refused "state: confirmed 2" [ run [ 7 ]; run [ 1; 9 ]; run []; run [ 0; 1; 0; 1; 2 ]; run []; run [] ];
  refused "state: a counter without its name" [ run [ 7 ]; run [ 1; 9 ]; run []; run []; run []; run [ 3 ] ];
  refused "state: a name without its counter" ((run [ 7 ] :: state_runs) @ [ Ref.Str "x" ]);
  refused "a trailing run" [ run [ 9 ]; run [ 9 ] ];
  refused "the old tagged case header" [ Ref.Case (9, []) ];
  refused "the old tagged hello" [ Ref.Case (0, [ Ref.Int 1; Ref.Int 4; Ref.Int 42 ]) ]

(* A payload's case index is its wire byte, and the sizes above cannot
   see two kinds swap indices. *)
let test_case_indices_pinned () =
  let target = Oid.make ~owner:p0 ~serial:1 in
  let id = Detection_id.make ~initiator:p0 ~seq:0 in
  let algebra = Algebra.empty in
  let payloads =
    [
      Msg.Rmi_request { req_id = 0; target; args = []; stub_ic = 0 };
      Msg.Rmi_reply { req_id = 0; target; results = [] };
      Msg.Export_notice { notice_id = 0; target; new_holder = p0 };
      Msg.Export_ack { notice_id = 0; target; new_holder = p0 };
      Msg.New_set_stubs { seqno = 0; serials = [||]; ics = [||] };
      Msg.Scion_probe;
      Msg.Cdm (Cdm.make ~id ~algebra ~frontier:(Ref_key.make ~src:p0 ~target) ~hops:0 ~budget:1);
      Msg.Cdm_delete { id; scions = [] };
      Msg.Ext "";
      Msg.Batch [];
    ]
  in
  check
    Alcotest.(array string)
    "kinds, in case order"
    [|
      "rmi_request"; "rmi_reply"; "export_notice"; "export_ack"; "new_set_stubs"; "scion_probe";
      "cdm"; "cdm_delete"; "ext"; "batch";
    |]
    Msg.kinds;
  List.iteri
    (fun i p ->
      check Alcotest.int (Msg.kind p ^ " case index") i (Msg.kind_index p);
      check Alcotest.string (Msg.kind p ^ " named by its index") Msg.kinds.(i) (Msg.kind p))
    payloads

let same_verdict equal a b =
  match (a, b) with
  | Some a, Some b -> equal a b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let corrupt bytes pos delta =
  let pos = pos mod String.length bytes in
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr ((Char.code bytes.[pos] + delta) land 0xff));
  Bytes.to_string b

let parity ~name gen emit read decode equal =
  let agree bytes = same_verdict equal (direct read bytes) (decode bytes) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:(name ^ " read of every truncation = the reference's") ~count:100 gen
         (fun v ->
           let bytes = Net_codec.encode_shape emit v in
           List.for_all
             (fun cut -> agree (String.sub bytes 0 cut))
             (List.init (String.length bytes) Fun.id)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:(name ^ " read of a corrupted byte = the reference's") ~count:500
         QCheck2.Gen.(triple gen (int_bound 10_000) (int_range 1 255))
         (fun (v, pos, delta) -> agree (corrupt (Net_codec.encode_shape emit v) pos delta)));
  ]

let msg_parity = parity ~name:"msg" gen_msg Msg.emit Msg.read Ref.msg_decode msg_equal

(* Each comparator's body reader, on its own bytes: every truncation
   and corrupted byte is read as the reference reads it. *)
let comparator_parity =
  parity ~name:"back-tracing body" gen_bt Btmsg.emit Btmsg.read Ref.btmsg_decode
    (fun a b -> Sval.equal (Ref.btmsg_sval a) (Ref.btmsg_sval b))
  @ parity ~name:"hughes body" gen_hughes Hmsg.emit Hmsg.read Ref.hmsg_decode
      (fun a b -> Sval.equal (Ref.hmsg_sval a) (Ref.hmsg_sval b))

let envelope_parity =
  parity ~name:"envelope" gen_envelope Envelope.emit Envelope.read Ref.envelope_decode
    envelope_equal
  @ parity ~name:"gathered state" gen_node_state Gather.emit Gather.read Ref.node_state_decode
      (fun a b -> Sval.equal (Ref.node_state_sval a) (Ref.node_state_sval b))

let suite =
  ( "serial",
    [
      Alcotest.test_case "wire: varint roundtrip" `Quick test_wire_varint_roundtrip;
      Alcotest.test_case "wire: small varints are 1 byte" `Quick test_wire_varint_small_is_one_byte;
      Alcotest.test_case "doc: int64 roundtrip" `Quick test_doc_int64_roundtrip;
      Alcotest.test_case "doc: float roundtrip" `Quick test_doc_float_roundtrip;
      Alcotest.test_case "wire: string roundtrip" `Quick test_wire_string_roundtrip;
      Alcotest.test_case "wire: truncated input fails" `Quick test_wire_truncated_fails;
      Alcotest.test_case "rotor: sample roundtrips" `Quick (roundtrip_samples rotor_roundtrip "rotor");
      Alcotest.test_case "doc: sample roundtrips" `Quick (roundtrip_samples doc_roundtrip "doc");
      Alcotest.test_case "codecs: nan" `Quick test_nan_roundtrip;
      Alcotest.test_case "rotor is >= 10x larger than doc" `Quick test_rotor_is_much_larger;
      Alcotest.test_case "rotor: checksum detects corruption" `Quick test_rotor_checksum_detects_corruption;
      Alcotest.test_case "doc: rejects garbage" `Quick test_doc_rejects_garbage;
      Alcotest.test_case "doc: rejects trailing bytes" `Quick test_doc_rejects_trailing;
      Alcotest.test_case "rotor: rejects missing checksum" `Quick test_rotor_rejects_missing_checksum;
      Alcotest.test_case "doc: name interning" `Quick test_doc_interning_shares_names;
      Alcotest.test_case "sval: size_nodes" `Quick test_size_nodes;
      qcheck_roundtrip rotor_roundtrip "qcheck rotor roundtrip";
      qcheck_roundtrip doc_roundtrip "qcheck doc roundtrip";
      Alcotest.test_case "msg: decoder rejects malformed payloads" `Quick
        test_payload_decoder_rejects;
      Alcotest.test_case "msg: decoder rejects a batch carrying references" `Quick
        test_batch_with_references_rejected;
      Alcotest.test_case "payload generator makes conflicting CDMs and stub sets" `Quick
        test_payload_generator_coverage;
      qcheck_payload_roundtrip Doc_codec.encode Doc_codec.decode
        "qcheck msg payload roundtrip (doc)";
      qcheck_payload_roundtrip Rotor_codec.encode Rotor_codec.decode
        "qcheck msg payload roundtrip (rotor)";
      qcheck_envelope_roundtrip;
      qcheck_msg_truncation;
      Alcotest.test_case "msg: writer rejects negative ints and foreign stub targets" `Quick
        test_writer_rejects;
      qcheck_truncation Doc_codec.encode Doc_codec.decode
        "qcheck truncated payload only Malformed (doc)";
      qcheck_truncation Rotor_codec.encode Rotor_codec.decode
        "qcheck truncated payload only Malformed (rotor)";
      qcheck_corruption Doc_codec.encode Doc_codec.decode
        "qcheck corrupted payload only Malformed (doc)";
      qcheck_corruption Rotor_codec.encode Rotor_codec.decode
        "qcheck corrupted payload only Malformed (rotor)";
      qcheck_msg_wire_identity;
      qcheck_cdm_wire_identity;
      qcheck_comparator_wire_identity;
      Alcotest.test_case "cdm sizing allocation is flat in the algebra" `Quick
        test_cdm_size_allocation_is_flat;
      qcheck_summary_wire_identity;
      qcheck_summary_truncation;
      qcheck_summary_corruption;
      qcheck_summary_lookup_model;
      qcheck_summary_order_enforced;
      Alcotest.test_case "summary: a repeated key or target is rejected" `Quick
        test_summary_rejects_repeated_key;
      qcheck_envelope_wire_identity;
      Alcotest.test_case "golden message sizes, one per payload kind" `Quick test_golden_sizes;
      Alcotest.test_case "golden envelope bytes, one per kind" `Quick test_envelope_golden_bytes;
      Alcotest.test_case "envelope: writer refuses a negative rank" `Quick test_envelope_writer_rejects;
      Alcotest.test_case "envelope: decoder rejects malformed runs" `Quick test_envelope_reader_rejects;
      Alcotest.test_case "msg: case indices of the kept kinds pinned" `Quick test_case_indices_pinned;
    ]
    @ msg_parity @ comparator_parity @ envelope_parity )
