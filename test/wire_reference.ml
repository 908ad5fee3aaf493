(* Reference implementation of every wire type, independent of the
   shapes and direct readers in lib/.

   Each type has a named {!Sval} tree builder ([msg_sval], ...): the
   value as a self-describing document, which the tests compare
   values through.  For the tagged types, [positional] drops the
   names, as the wire does — a record becomes its fields in order, a
   sum type's constructor its case index and fields — and [encode]
   writes that tree with the same tags as [Net_codec].  [decode_tree]
   reads any such bytes back into a tree, and the [*_of_tree] matchers
   say which trees are valid values.  A protocol message is not one
   tree but one packed run and what follows it: [msg_trees] lays it
   out and [msg_decode] reads it back, with no code shared with
   [Msg].  A snapshot summary's reference lives in
   summary_reference.ml.  The wire-identity properties pin every shape
   and reader against these: same bytes, same strictness.

   Every oid here requires a non-negative owner {e and} serial, which
   is the single rule [Oid.read] enforces; a packed run holds no
   negative int at all. *)

open Adgc_algebra
module Sval = Adgc_paper.Sval
module Wire = Adgc_serial.Wire
module Msg = Adgc_rt.Msg
module Envelope = Adgc_net.Envelope
module Gather = Adgc_net.Gather

(* ------------------------------------------------------------------ *)
(* The positional wire as a tree *)

type tree =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | List of tree list
  | Packed of int list  (** unsigned items, counted unsigned *)
  | Rec of tree list  (** a record: its fields, in order *)
  | Case of int * tree list  (** case [i] of a sum type, with its fields *)

(* Every sum type's constructors, in constructor order.  A named
   record whose name is one of these is that case on the wire; any
   other record is a plain record.  No name is in two lists. *)
let case_lists =
  [
    [
      "hello"; "start"; "heartbeat"; "net_msg"; "status_req"; "status"; "state_req"; "state";
      "drop_peer"; "shutdown"; "bye";
    ];
    [ "bt_query"; "bt_reply" ];
    [ "h_stamp"; "h_report"; "h_threshold" ];
  ]

let case_index name = List.find_map (List.find_index (String.equal name)) case_lists

let rec positional : Sval.t -> tree = function
  | Sval.Unit -> Unit
  | Sval.Bool b -> Bool b
  | Sval.Int i -> Int i
  | Sval.Float _ -> invalid_arg "Wire_reference.positional: no wire type carries a float"
  | Sval.Str s -> Str s
  | Sval.List l -> List (List.map positional l)
  | Sval.Packed l -> Packed l
  | Sval.Record (name, fields) -> (
      let fields = List.map (fun (_, v) -> positional v) fields in
      match case_index name with Some i -> Case (i, fields) | None -> Rec fields)

let tag_unit = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_str = 5
let tag_list = 6
let tag_packed = 8
let tag_record = 9
let tag_case = 10

(* Plain LEB128: seven bits a byte, low first, no sign. *)
let write_uvarint w v =
  if v < 0 then invalid_arg "Wire_reference: a negative int in a packed run";
  let rec go v =
    if v < 0x80 then Wire.Writer.byte w v
    else begin
      Wire.Writer.byte w (0x80 lor (v land 0x7F));
      go (v lsr 7)
    end
  in
  go v

(* At most nine bytes, the ninth carrying six bits: no value past
   [max_int] reads. *)
let read_uvarint r =
  let malformed what = raise (Wire.Malformed { offset = Wire.Reader.pos r; what }) in
  let rec go i acc =
    let b = Wire.Reader.byte r in
    let bits = b land 0x7F in
    if i = 8 && (b >= 0x80 || bits >= 0x40) then malformed "unsigned varint out of range";
    let acc = acc + (bits lsl (7 * i)) in
    if b < 0x80 then acc else go (i + 1) acc
  in
  go 0 0

let write_tree w t =
  let rec go = function
    | Unit -> Wire.Writer.byte w tag_unit
    | Bool b -> Wire.Writer.byte w (if b then tag_true else tag_false)
    | Int i ->
        Wire.Writer.byte w tag_int;
        Wire.Writer.varint w i
    | Str s ->
        Wire.Writer.byte w tag_str;
        Wire.Writer.string w s
    | List l -> items tag_list l
    | Packed l ->
        Wire.Writer.byte w tag_packed;
        write_uvarint w (List.length l);
        List.iter (write_uvarint w) l
    | Rec l -> items tag_record l
    | Case (i, l) ->
        Wire.Writer.byte w tag_case;
        Wire.Writer.varint w i;
        Wire.Writer.varint w (List.length l);
        List.iter go l
  and items tag l =
    Wire.Writer.byte w tag;
    Wire.Writer.varint w (List.length l);
    List.iter go l
  in
  go t

let encode_trees ts =
  let w = Wire.Writer.create () in
  List.iter (write_tree w) ts;
  Wire.Writer.contents w

let encode_tree t = encode_trees [ t ]

(* A named tree's wire bytes. *)
let encode sval = encode_tree (positional sval)

(* One tree off the reader. *)
let read_tree r =
  let malformed what = raise (Wire.Malformed { offset = Wire.Reader.pos r; what }) in
  (* Every item takes at least a byte. *)
  let plausible n =
    if n < 0 || n > Wire.Reader.remaining r then malformed "implausible length";
    n
  in
  let length () = plausible (Wire.Reader.varint r) in
  let rec go () =
    let tag = Wire.Reader.byte r in
    if tag = tag_unit then Unit
    else if tag = tag_false then Bool false
    else if tag = tag_true then Bool true
    else if tag = tag_int then Int (Wire.Reader.varint r)
    else if tag = tag_str then Str (Wire.Reader.string r)
    else if tag = tag_list then List (List.init (length ()) (fun _ -> go ()))
    else if tag = tag_packed then
      Packed (List.init (plausible (read_uvarint r)) (fun _ -> read_uvarint r))
    else if tag = tag_record then Rec (List.init (length ()) (fun _ -> go ()))
    else if tag = tag_case then begin
      let i = Wire.Reader.varint r in
      Case (i, List.init (length ()) (fun _ -> go ()))
    end
    else malformed "bad tag"
  in
  go ()

let finish r =
  if not (Wire.Reader.at_end r) then
    raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "trailing bytes" })

let decode_tree bytes =
  let r = Wire.Reader.of_string bytes in
  let t = read_tree r in
  finish r;
  t

(* Bytes to a value the reference way: tree decode, then the matcher. *)
let tree_decode of_tree bytes =
  match decode_tree bytes with
  | tree -> of_tree tree
  | exception Wire.Malformed _ -> None

let oid_sval (o : Oid.t) = Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let ref_sval (k : Ref_key.t) =
  Sval.List [ Sval.Int (Proc_id.to_int k.Ref_key.src); oid_sval k.Ref_key.target ]

let oid_of_tree = function
  | List [ Int owner; Int serial ] when owner >= 0 && serial >= 0 ->
      Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial)
  | _ -> None

let key_of_tree = function
  | List [ Int src; target ] when src >= 0 ->
      Option.map (fun target -> Ref_key.make ~src:(Proc_id.of_int src) ~target) (oid_of_tree target)
  | _ -> None

let all_some l =
  List.fold_left
    (fun acc v -> match (acc, v) with Some acc, Some v -> Some (v :: acc) | _, _ -> None)
    (Some []) l
  |> Option.map List.rev

let all_of f l = all_some (List.map f l)

(* ------------------------------------------------------------------ *)
(* Algebra and CDM *)

let key_fields (key : Ref_key.t) =
  [
    ("src", Sval.Int (Proc_id.to_int key.Ref_key.src));
    ("owner", Sval.Int (Proc_id.to_int (Oid.owner key.Ref_key.target)));
    ("serial", Sval.Int key.Ref_key.target.Oid.serial);
  ]

let entry_sval (key, ic) = Sval.Record ("entry", key_fields key @ [ ("ic", Sval.Int ic) ])

let algebra_sval t =
  Sval.Record
    ( "algebra",
      [
        ("source", Sval.List (List.map entry_sval (Algebra.bindings t Algebra.Source)));
        ("target", Sval.List (List.map entry_sval (Algebra.bindings t Algebra.Target)));
      ] )

(* The paper's compact form as [src; owner; serial; ic * 4 + bits] per
   entry, in key order: a key on both sides with equal ICs is one entry
   with bits 3; with different ICs it is two, bits 1 then 2. *)
let algebra_entries t =
  let ce (key : Ref_key.t) ic bits =
    [
      Proc_id.to_int key.Ref_key.src;
      Proc_id.to_int (Oid.owner key.Ref_key.target);
      key.Ref_key.target.Oid.serial;
      (4 * ic) + bits;
    ]
  in
  let keys =
    List.sort_uniq Ref_key.compare (List.map fst (Algebra.bindings t Algebra.Source @ Algebra.bindings t Algebra.Target))
  in
  List.concat_map
    (fun key ->
      match (Algebra.ic t Algebra.Source key, Algebra.ic t Algebra.Target key) with
      | Some s, Some tg when s = tg -> ce key s 3
      | Some s, Some tg -> ce key s 1 @ ce key tg 2
      | Some s, None -> ce key s 1
      | None, Some tg -> ce key tg 2
      | None, None -> [])
    keys

(* A CDM's ints in its carrier's run: its header, then its algebra's
   entries. *)
let cdm_ints (t : Cdm.t) =
  [
    Proc_id.to_int t.Cdm.id.Detection_id.initiator;
    t.Cdm.id.Detection_id.seq;
    Proc_id.to_int t.Cdm.frontier.Ref_key.src;
    Proc_id.to_int (Oid.owner t.Cdm.frontier.Ref_key.target);
    t.Cdm.frontier.Ref_key.target.Oid.serial;
    t.Cdm.hops;
    t.Cdm.budget;
  ]
  @ algebra_entries t.Cdm.algebra

let cdm_sval (t : Cdm.t) =
  Sval.Record
    ( "cdm",
      [
        ("initiator", Sval.Int (Proc_id.to_int t.Cdm.id.Detection_id.initiator));
        ("seq", Sval.Int t.Cdm.id.Detection_id.seq);
        ("frontier", ref_sval t.Cdm.frontier);
        ("hops", Sval.Int t.Cdm.hops);
        ("budget", Sval.Int t.Cdm.budget);
        ("algebra", algebra_sval t.Cdm.algebra);
      ] )

(* Entries must be whole, name a side, and agree with one another. *)
let algebra_of_entries ints =
  if List.length ints mod 4 <> 0 then None
  else
    let rec entries = function
      | src :: owner :: serial :: ic_bits :: rest ->
          if ic_bits mod 4 <> 0 then
            let target = Oid.make ~owner:(Proc_id.of_int owner) ~serial in
            Option.map
              (fun rest ->
                (Ref_key.make ~src:(Proc_id.of_int src) ~target, ic_bits / 4, ic_bits mod 4) :: rest)
              (entries rest)
          else None
      | _ -> Some []
    in
    Option.bind (entries ints)
      (List.fold_left
         (fun acc (key, ic, bits) ->
           let add_side side t =
             match Algebra.add t side key ~ic with
             | Algebra.Added t -> Some t
             | Algebra.Ic_conflict _ -> None
           in
           Option.bind acc (fun t ->
               let t = if bits land 1 <> 0 then add_side Algebra.Source t else Some t in
               Option.bind t (fun t ->
                   if bits land 2 <> 0 then add_side Algebra.Target t else Some t)))
         (Some Algebra.empty))

let cdm_of_ints = function
  | initiator :: seq :: f_src :: f_owner :: f_serial :: hops :: budget :: entries ->
      Option.map
        (fun algebra ->
          let id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq in
          let target = Oid.make ~owner:(Proc_id.of_int f_owner) ~serial:f_serial in
          let frontier = Ref_key.make ~src:(Proc_id.of_int f_src) ~target in
          Cdm.make ~id ~algebra ~frontier ~hops ~budget)
        (algebra_of_entries entries)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The comparators' payloads: the bodies of a [Msg.Ext] *)

module Btmsg = Adgc_baseline.Btmsg
module Hmsg = Adgc_baseline.Hmsg

let bt_ref_sval (k : Ref_key.t) =
  Sval.List
    [
      Sval.Int (Proc_id.to_int k.src);
      Sval.Int (Proc_id.to_int (Oid.owner k.target));
      Sval.Int k.target.Oid.serial;
    ]

let btmsg_sval = function
  | Btmsg.Query q ->
      Sval.Record
        ( "bt_query",
          [
            ("initiator", Sval.Int (Proc_id.to_int q.trace.initiator));
            ("seq", Sval.Int q.trace.seq);
            ("subject", bt_ref_sval q.subject);
            ("visited", Sval.List (List.map bt_ref_sval q.visited));
          ] )
  | Btmsg.Reply r ->
      Sval.Record
        ( "bt_reply",
          [
            ("initiator", Sval.Int (Proc_id.to_int r.trace.initiator));
            ("seq", Sval.Int r.trace.seq);
            ("subject", bt_ref_sval r.subject);
            ("verdict", Sval.Bool (match r.verdict with Btmsg.Rooted -> true | Btmsg.Cycle_back -> false));
          ] )

let bt_ref_of_tree = function
  | List [ Int src; Int owner; Int serial ] when src >= 0 && owner >= 0 && serial >= 0 ->
      Some
        (Ref_key.make ~src:(Proc_id.of_int src)
           ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial))
  | _ -> None

let btmsg_of_tree = function
  | Case (0, [ Int initiator; Int seq; subject; List visited ]) when initiator >= 0 -> (
      match (bt_ref_of_tree subject, all_of bt_ref_of_tree visited) with
      | Some subject, Some visited ->
          Some
            (Btmsg.Query
               { trace = { Btmsg.initiator = Proc_id.of_int initiator; seq }; subject; visited })
      | _ -> None)
  | Case (1, [ Int initiator; Int seq; subject; Bool verdict ]) when initiator >= 0 ->
      Option.map
        (fun subject ->
          Btmsg.Reply
            {
              trace = { Btmsg.initiator = Proc_id.of_int initiator; seq };
              subject;
              verdict = (if verdict then Btmsg.Rooted else Btmsg.Cycle_back);
            })
        (bt_ref_of_tree subject)
  | _ -> None

let hmsg_sval = function
  | Hmsg.Stamp stamps ->
      let stamp ((o : Oid.t), stamp) =
        Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial; Sval.Int stamp ]
      in
      Sval.Record ("h_stamp", [ ("stamps", Sval.List (List.map stamp stamps)) ])
  | Hmsg.Report { round_time } -> Sval.Record ("h_report", [ ("round_time", Sval.Int round_time) ])
  | Hmsg.Threshold { value } -> Sval.Record ("h_threshold", [ ("value", Sval.Int value) ])

let hmsg_of_tree = function
  | Case (0, [ List entries ]) ->
      let stamp = function
        | List [ Int owner; Int serial; Int stamp ] when owner >= 0 && serial >= 0 ->
            Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial, stamp)
        | _ -> None
      in
      Option.map (fun stamps -> Hmsg.Stamp stamps) (all_of stamp entries)
  | Case (1, [ Int round_time ]) -> Some (Hmsg.Report { round_time })
  | Case (2, [ Int value ]) -> Some (Hmsg.Threshold { value })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Messages *)

let rec payload_sval = function
  | Msg.Rmi_request { req_id; target; args; stub_ic } ->
      Sval.Record
        ( "rmi_request",
          [
            ("req_id", Sval.Int req_id);
            ("target", oid_sval target);
            ("args", Sval.List (List.map oid_sval args));
            ("stub_ic", Sval.Int stub_ic);
          ] )
  | Msg.Rmi_reply { req_id; target; results } ->
      Sval.Record
        ( "rmi_reply",
          [
            ("req_id", Sval.Int req_id);
            ("target", oid_sval target);
            ("results", Sval.List (List.map oid_sval results));
          ] )
  | Msg.Export_notice { notice_id; target; new_holder } ->
      Sval.Record
        ( "export_notice",
          [
            ("notice_id", Sval.Int notice_id);
            ("target", oid_sval target);
            ("new_holder", Sval.Int (Proc_id.to_int new_holder));
          ] )
  | Msg.Export_ack { notice_id; target; new_holder } ->
      Sval.Record
        ( "export_ack",
          [
            ("notice_id", Sval.Int notice_id);
            ("target", oid_sval target);
            ("new_holder", Sval.Int (Proc_id.to_int new_holder));
          ] )
  | Msg.New_set_stubs { seqno; serials; ics } ->
      let ints a = Sval.List (Array.to_list (Array.map (fun i -> Sval.Int i) a)) in
      Sval.Record ("new_set_stubs", [ ("seqno", Sval.Int seqno); ("serials", ints serials); ("ics", ints ics) ])
  | Msg.Scion_probe -> Sval.Record ("scion_probe", [])
  | Msg.Cdm cdm -> cdm_sval cdm
  | Msg.Cdm_delete { id; scions } ->
      Sval.Record
        ( "cdm_delete",
          [
            ("initiator", Sval.Int (Proc_id.to_int id.Detection_id.initiator));
            ("seq", Sval.Int id.Detection_id.seq);
            ("scions", Sval.List (List.map ref_sval scions));
          ] )
  | Msg.Ext body -> Sval.Record ("ext", [ ("body", Sval.Str body) ])
  | Msg.Batch payloads ->
      Sval.Record ("batch", [ ("msgs", Sval.List (List.map payload_sval payloads)) ])

let msg_sval (t : Msg.t) =
  Sval.Record
    ( "msg",
      [
        ("src", Sval.Int (Proc_id.to_int t.Msg.src));
        ("dst", Sval.Int (Proc_id.to_int t.Msg.dst));
        ("seq", Sval.Int t.Msg.seq);
        ("sent_at", Sval.Int t.Msg.sent_at);
        ("payload", payload_sval t.Msg.payload);
      ] )

(* On the wire a message is one packed run, [src; dst; seq; sent_at;
   kind; fields...], an oid as [owner; serial], and what follows it:
   an [Ext]'s body as a string, a [Batch]'s constituents as runs of
   their own, [kind; fields...] and what follows each. *)

let oid_ints (o : Oid.t) = [ Proc_id.to_int (Oid.owner o); o.Oid.serial ]

(* A payload's [kind :: fields], and the trees after its run.  A stub
   set's owner is the destination: the run holds the first serial and
   then each serial's gap to the one before. *)
let rec payload_layout = function
  | Msg.Rmi_request { req_id; target; args; stub_ic } ->
      ((0 :: req_id :: oid_ints target) @ (stub_ic :: List.concat_map oid_ints args), [])
  | Msg.Rmi_reply { req_id; target; results } ->
      ((1 :: req_id :: oid_ints target) @ List.concat_map oid_ints results, [])
  | Msg.Export_notice { notice_id; target; new_holder } ->
      ((2 :: notice_id :: oid_ints target) @ [ Proc_id.to_int new_holder ], [])
  | Msg.Export_ack { notice_id; target; new_holder } ->
      ((3 :: notice_id :: oid_ints target) @ [ Proc_id.to_int new_holder ], [])
  | Msg.New_set_stubs { seqno; serials; ics } ->
      if Array.length serials <> Array.length ics then
        invalid_arg "Wire_reference.payload_layout: unequal serial and IC counts";
      let rec gaps prev = function
        | [] -> []
        | (serial, ic) :: rest -> (serial - prev - 1) :: ic :: gaps serial rest
      in
      (4 :: seqno :: gaps (-1) (List.combine (Array.to_list serials) (Array.to_list ics)), [])
  | Msg.Scion_probe -> ([ 5 ], [])
  | Msg.Cdm cdm -> (6 :: cdm_ints cdm, [])
  | Msg.Cdm_delete { id; scions } ->
      ( 7 :: Proc_id.to_int id.Detection_id.initiator :: id.Detection_id.seq
        :: List.concat_map
             (fun (k : Ref_key.t) -> Proc_id.to_int k.Ref_key.src :: oid_ints k.Ref_key.target)
             scions,
        [] )
  | Msg.Ext body -> ([ 8 ], [ Str body ])
  | Msg.Batch payloads -> ([ 9; List.length payloads ], List.concat_map payload_trees payloads)

and payload_trees p =
  let ints, after = payload_layout p in
  Packed ints :: after

let msg_trees (t : Msg.t) =
  let ints, after = payload_layout t.Msg.payload in
  Packed ([ Proc_id.to_int t.Msg.src; Proc_id.to_int t.Msg.dst; t.Msg.seq; t.Msg.sent_at ] @ ints)
  :: after

let msg_bytes t = encode_trees (msg_trees t)

let payload_bytes p = encode_trees (payload_trees p)

(* [width]-int entries, after the fixed fields. *)
let rec chunks width = function
  | [] -> Some []
  | l when List.length l < width -> None
  | l ->
      Option.map
        (fun rest -> List.filteri (fun i _ -> i < width) l :: rest)
        (chunks width (List.filteri (fun i _ -> i >= width) l))

let oid_of_ints = function
  | [ owner; serial ] -> Oid.make ~owner:(Proc_id.of_int owner) ~serial
  | _ -> invalid_arg "oid_of_ints"

(* The payload of run [kind :: fields], pulling what follows the run
   off [next]. *)
let rec payload_of ~batched next kind fields =
  match (kind, fields) with
  | 0, req_id :: owner :: serial :: stub_ic :: args ->
      Option.map
        (fun args ->
          Msg.Rmi_request
            { req_id; target = oid_of_ints [ owner; serial ]; args = List.map oid_of_ints args; stub_ic })
        (chunks 2 args)
  | 1, req_id :: owner :: serial :: results ->
      Option.map
        (fun results ->
          Msg.Rmi_reply
            { req_id; target = oid_of_ints [ owner; serial ]; results = List.map oid_of_ints results })
        (chunks 2 results)
  | 2, [ notice_id; owner; serial; holder ] ->
      Some
        (Msg.Export_notice
           { notice_id; target = oid_of_ints [ owner; serial ]; new_holder = Proc_id.of_int holder })
  | 3, [ notice_id; owner; serial; holder ] ->
      Some
        (Msg.Export_ack
           { notice_id; target = oid_of_ints [ owner; serial ]; new_holder = Proc_id.of_int holder })
  | 4, seqno :: entries ->
      Option.bind (chunks 2 entries) (fun entries ->
          let rec go prev = function
            | [] -> Some []
            | [ gap; ic ] :: rest ->
                (* A serial past [max_int] has no int. *)
                if gap > max_int - prev - 1 then None
                else
                  let serial = prev + 1 + gap in
                  Option.map (fun l -> (serial, ic) :: l) (go serial rest)
            | _ -> None
          in
          Option.map
            (fun listed ->
              Msg.New_set_stubs
                {
                  seqno;
                  serials = Array.of_list (List.map fst listed);
                  ics = Array.of_list (List.map snd listed);
                })
            (go (-1) entries))
  | 5, [] -> Some Msg.Scion_probe
  | 6, ints -> Option.map (fun cdm -> Msg.Cdm cdm) (cdm_of_ints ints)
  | 7, initiator :: seq :: keys ->
      Option.map
        (fun keys ->
          Msg.Cdm_delete
            {
              id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq;
              scions =
                List.map
                  (function
                    | [ src; owner; serial ] ->
                        Ref_key.make ~src:(Proc_id.of_int src) ~target:(oid_of_ints [ owner; serial ])
                    | _ -> assert false)
                  keys;
            })
        (chunks 3 keys)
  | 8, [] -> ( match next () with Str body -> Some (Msg.Ext body) | _ -> None)
  | 9, [ n ] when not batched ->
      (* Batches are never nested, nor does a batch carry
         references: kinds 0-3 name at least their target. *)
      let constituent () =
        match next () with
        | Packed (kind :: fields) when kind > 3 -> payload_of ~batched:true next kind fields
        | _ -> None
      in
      let rec go k acc =
        if k = 0 then Some (Msg.Batch (List.rev acc))
        else match constituent () with Some p -> go (k - 1) (p :: acc) | None -> None
      in
      go n []
  | _ -> None

(* The message off the reader, or [None]; the caller checks the end. *)
let read_msg r =
  let next () = read_tree r in
  match next () with
  | Packed (src :: dst :: seq :: sent_at :: kind :: fields) ->
      let dst = Proc_id.of_int dst in
      Option.map
        (fun payload -> Msg.make ~seq ~src:(Proc_id.of_int src) ~dst ~sent_at payload)
        (payload_of ~batched:false next kind fields)
  | _ -> None

let msg_decode bytes =
  let r = Wire.Reader.of_string bytes in
  match read_msg r with
  | Some m when Wire.Reader.at_end r -> Some m
  | Some _ | None -> None
  | exception Wire.Malformed _ -> None

(* ------------------------------------------------------------------ *)
(* Socket envelopes and gathered node state *)

let node_state_sval (t : Gather.node_state) =
  Sval.Record
    ( "node_state",
      [
        ("rank", Sval.Int t.Gather.rank);
        ("tick", Sval.Int t.Gather.tick);
        ( "objects",
          Sval.List
            (List.map
               (fun (o : Gather.object_state) ->
                 Sval.List
                   [ oid_sval o.Gather.oid; Sval.List (List.map oid_sval o.Gather.refs); Sval.Bool o.Gather.rooted ])
               t.Gather.objects) );
        ( "stubs",
          Sval.List
            (List.map
               (fun (s : Gather.stub_state) -> Sval.List [ oid_sval s.Gather.target; Sval.Int s.Gather.stub_ic ])
               t.Gather.stubs) );
        ( "scions",
          Sval.List
            (List.map
               (fun (s : Gather.scion_state) ->
                 Sval.List [ ref_sval s.Gather.key; Sval.Int s.Gather.scion_ic; Sval.Bool s.Gather.confirmed ])
               t.Gather.scions) );
        ("reclaimed", Sval.List (List.map oid_sval t.Gather.reclaimed));
        ( "counters",
          Sval.List (List.map (fun (k, v) -> Sval.List [ Sval.Str k; Sval.Int v ]) t.Gather.counters) );
      ] )

let node_state_of_tree = function
  | Rec
      [
        Int rank; Int tick; List objects; List stubs; List scions; List reclaimed; List counters;
      ] -> (
      let obj = function
        | List [ oid; List refs; Bool rooted ] -> (
            match (oid_of_tree oid, all_of oid_of_tree refs) with
            | Some oid, Some refs -> Some { Gather.oid; refs; rooted }
            | _ -> None)
        | _ -> None
      in
      let stub = function
        | List [ target; Int stub_ic ] ->
            Option.map (fun target -> { Gather.target; stub_ic }) (oid_of_tree target)
        | _ -> None
      in
      let scion = function
        | List [ key; Int scion_ic; Bool confirmed ] ->
            Option.map (fun key -> { Gather.key; scion_ic; confirmed }) (key_of_tree key)
        | _ -> None
      in
      let counter = function List [ Str k; Int v ] -> Some (k, v) | _ -> None in
      match
        ( all_of obj objects,
          all_of stub stubs,
          all_of scion scions,
          all_of oid_of_tree reclaimed,
          all_of counter counters )
      with
      | Some objects, Some stubs, Some scions, Some reclaimed, Some counters ->
          Some { Gather.rank; tick; objects; stubs; scions; reclaimed; counters }
      | _ -> None)
  | _ -> None

let envelope_sval = function
  | Envelope.Hello { rank; procs; seed } ->
      Sval.Record
        ("hello", [ ("rank", Sval.Int rank); ("procs", Sval.Int procs); ("seed", Sval.Int seed) ])
  | Envelope.Start -> Sval.Record ("start", [])
  | Envelope.Heartbeat { tick } -> Sval.Record ("heartbeat", [ ("tick", Sval.Int tick) ])
  | Envelope.Net_msg m -> Sval.Record ("net_msg", [ ("msg", msg_sval m) ])
  | Envelope.Status_req -> Sval.Record ("status_req", [])
  | Envelope.Status s ->
      Sval.Record
        ( "status",
          [
            ("rank", Sval.Int s.Envelope.st_rank);
            ("tick", Sval.Int s.Envelope.st_tick);
            ("ready", Sval.Bool s.Envelope.st_ready);
            ("reclaimed", Sval.List (List.map oid_sval s.Envelope.st_reclaimed));
            ("wire_sent", Sval.Int s.Envelope.st_wire_sent);
            ("wire_received", Sval.Int s.Envelope.st_wire_received);
            ("dup_ignored", Sval.Int s.Envelope.st_dup_ignored);
          ] )
  | Envelope.State_req -> Sval.Record ("state_req", [])
  | Envelope.State ns -> Sval.Record ("state", [ ("node", node_state_sval ns) ])
  | Envelope.Drop_peer rank -> Sval.Record ("drop_peer", [ ("rank", Sval.Int rank) ])
  | Envelope.Shutdown -> Sval.Record ("shutdown", [])
  | Envelope.Bye -> Sval.Record ("bye", [])

let envelope_of_tree = function
  | Case (0, [ Int rank; Int procs; Int seed ]) -> Some (Envelope.Hello { rank; procs; seed })
  | Case (1, []) -> Some Envelope.Start
  | Case (2, [ Int tick ]) -> Some (Envelope.Heartbeat { tick })
  | Case (4, []) -> Some Envelope.Status_req
  | Case
      ( 5,
        [
          Int st_rank;
          Int st_tick;
          Bool st_ready;
          List reclaimed;
          Int st_wire_sent;
          Int st_wire_received;
          Int st_dup_ignored;
        ] ) ->
      Option.map
        (fun st_reclaimed ->
          Envelope.Status
            {
              Envelope.st_rank;
              st_tick;
              st_ready;
              st_reclaimed;
              st_wire_sent;
              st_wire_received;
              st_dup_ignored;
            })
        (all_of oid_of_tree reclaimed)
  | Case (6, []) -> Some Envelope.State_req
  | Case (7, [ ns ]) -> Option.map (fun ns -> Envelope.State ns) (node_state_of_tree ns)
  | Case (8, [ Int rank ]) -> Some (Envelope.Drop_peer rank)
  | Case (9, []) -> Some Envelope.Shutdown
  | Case (10, []) -> Some Envelope.Bye
  | _ -> None

(* A [net_msg] envelope is its case header — case 3 of one field —
   and then the message's own bytes. *)
let net_msg_header =
  let w = Wire.Writer.create () in
  Wire.Writer.byte w tag_case;
  Wire.Writer.varint w 3;
  Wire.Writer.varint w 1;
  Wire.Writer.contents w

let envelope_bytes = function
  | Envelope.Net_msg m -> net_msg_header ^ msg_bytes m
  | e -> encode (envelope_sval e)

let envelope_decode bytes =
  let r = Wire.Reader.of_string bytes in
  match
    Wire.Reader.byte r = tag_case && Wire.Reader.varint r = 3 && Wire.Reader.varint r = 1
  with
  | true -> (
      match read_msg r with
      | Some m when Wire.Reader.at_end r -> Some (Envelope.Net_msg m)
      | Some _ | None -> None
      | exception Wire.Malformed _ -> None)
  | false -> tree_decode envelope_of_tree bytes
  | exception Wire.Malformed _ -> None
