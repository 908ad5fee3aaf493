(* Reference implementation of every wire type, independent of the
   shapes and direct readers in lib/.

   Each type has a named {!Sval} tree builder ([msg_sval], ...): the
   value as a self-describing document, which the tests compare
   values through.  On the wire every type is packed runs of unsigned
   ints and, where a run cannot hold the data, strings: the
   [*_trees]/[*_bytes] builders lay a value out as those, with the
   ints as plain lists, and the [*_decode] readers read such bytes
   back, with no code shared with lib/.  A snapshot summary's
   reference lives in summary_reference.ml.  The wire-identity
   properties pin every shape and reader against these: same bytes,
   same strictness.

   A packed run holds no negative int, so no id, counter or tick
   read here is negative. *)

open Adgc_algebra
module Sval = Adgc_paper.Sval
module Wire = Adgc_serial.Wire
module Msg = Adgc_rt.Msg
module Envelope = Adgc_net.Envelope
module Gather = Adgc_net.Gather

(* ------------------------------------------------------------------ *)
(* The wire as trees *)

type tree =
  | Packed of int list  (** a run: unsigned items, counted unsigned *)
  | Str of string
  | Int of int  (** a tagged zigzag int, as the wire once carried *)
  | Rec of tree list  (** a tagged record, as the wire once carried *)
  | Case of int * tree list  (** a tagged case of a sum type, as the wire once carried *)

(* The last three trees are forms the wire no longer has: tests write
   them to check that every reader refuses them. *)
let tag_int = 3
let tag_str = 5
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
    | Packed l ->
        Wire.Writer.byte w tag_packed;
        write_uvarint w (List.length l);
        List.iter (write_uvarint w) l
    | Str s ->
        Wire.Writer.byte w tag_str;
        Wire.Writer.string w s
    | Int i ->
        Wire.Writer.byte w tag_int;
        Wire.Writer.varint w i
    | Rec l ->
        Wire.Writer.byte w tag_record;
        Wire.Writer.varint w (List.length l);
        List.iter go l
    | Case (i, l) ->
        Wire.Writer.byte w tag_case;
        Wire.Writer.varint w i;
        Wire.Writer.varint w (List.length l);
        List.iter go l
  in
  go t

let encode_trees ts =
  let w = Wire.Writer.create () in
  List.iter (write_tree w) ts;
  Wire.Writer.contents w

let encode_tree t = encode_trees [ t ]

(* One run or string off the reader: nothing else is on the wire. *)
let read_tree r =
  let malformed what = raise (Wire.Malformed { offset = Wire.Reader.pos r; what }) in
  let tag = Wire.Reader.byte r in
  if tag = tag_packed then begin
    (* Every item takes at least a byte. *)
    let n = read_uvarint r in
    if n > Wire.Reader.remaining r then malformed "implausible length";
    Packed (List.init n (fun _ -> read_uvarint r))
  end
  else if tag = tag_str then Str (Wire.Reader.string r)
  else malformed "bad tag"

(* Trees off the bytes through [read], which pulls each with the
   function it is given; [None] unless [read] accepts them and they
   are the whole input. *)
let decode_with read bytes =
  let r = Wire.Reader.of_string bytes in
  match read (fun () -> read_tree r) with
  | Some v when Wire.Reader.at_end r -> Some v
  | Some _ | None -> None
  | exception Wire.Malformed _ -> None

(* A value that is one run and nothing after it. *)
let run_decode of_ints =
  decode_with (fun next ->
      match next () with Packed l -> of_ints l | Str _ | Int _ | Rec _ | Case _ -> None)

let oid_sval (o : Oid.t) = Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let ref_sval (k : Ref_key.t) =
  Sval.List [ Sval.Int (Proc_id.to_int k.Ref_key.src); oid_sval k.Ref_key.target ]

(* An id is [owner; serial] in a run, a reference key [src; owner;
   serial]. *)
let oid_ints (o : Oid.t) = [ Proc_id.to_int (Oid.owner o); o.Oid.serial ]

let key_ints (k : Ref_key.t) = Proc_id.to_int k.Ref_key.src :: oid_ints k.Ref_key.target

let oid_of_ints = function
  | [ owner; serial ] -> Oid.make ~owner:(Proc_id.of_int owner) ~serial
  | _ -> invalid_arg "oid_of_ints"

let key_of_ints = function
  | src :: oid -> Ref_key.make ~src:(Proc_id.of_int src) ~target:(oid_of_ints oid)
  | [] -> invalid_arg "key_of_ints"

(* [width]-int entries, or [None] if the last is short. *)
let rec chunks width = function
  | [] -> Some []
  | l when List.length l < width -> None
  | l ->
      Option.map
        (fun rest -> List.filteri (fun i _ -> i < width) l :: rest)
        (chunks width (List.filteri (fun i _ -> i >= width) l))

let flag_of_int = function 0 -> Some false | 1 -> Some true | _ -> None

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
  let ce key ic bits = key_ints key @ [ (4 * ic) + bits ] in
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
  (Proc_id.to_int t.Cdm.id.Detection_id.initiator :: t.Cdm.id.Detection_id.seq :: key_ints t.Cdm.frontier)
  @ (t.Cdm.hops :: t.Cdm.budget :: algebra_entries t.Cdm.algebra)

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

(* Entries must be whole, name a side, and ascend strictly by key; the
   one repeat is a conflict's, bits 1 then bits 2 with different ICs. *)
let algebra_of_entries ints =
  if List.length ints mod 4 <> 0 then None
  else
    let rec entries = function
      | src :: owner :: serial :: ic_bits :: rest ->
          if ic_bits mod 4 <> 0 then
            Option.map
              (fun rest -> (key_of_ints [ src; owner; serial ], ic_bits / 4, ic_bits mod 4) :: rest)
              (entries rest)
          else None
      | _ -> Some []
    in
    let rec canonical = function
      | (k, ic, bits) :: ((k', ic', bits') :: _ as rest) ->
          let c = Ref_key.compare k k' in
          (c < 0 || (c = 0 && bits = 1 && bits' = 2 && ic <> ic')) && canonical rest
      | [ _ ] | [] -> true
    in
    Option.bind
      (Option.bind (entries ints) (fun l -> if canonical l then Some l else None))
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
          let frontier = key_of_ints [ f_src; f_owner; f_serial ] in
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

(* One run: [kind; initiator; seq; subject], then a query's visited
   keys or a reply's verdict, 1 for rooted. *)
let btmsg_bytes t =
  let head kind (trace : Btmsg.trace_id) subject =
    kind :: Proc_id.to_int trace.initiator :: trace.seq :: key_ints subject
  in
  encode_tree
    (Packed
       (match t with
       | Btmsg.Query q -> head 0 q.trace q.subject @ List.concat_map key_ints q.visited
       | Btmsg.Reply r ->
           head 1 r.trace r.subject @ [ (match r.verdict with Btmsg.Rooted -> 1 | Btmsg.Cycle_back -> 0) ]))

let btmsg_decode =
  run_decode (function
    | kind :: initiator :: seq :: src :: owner :: serial :: rest -> (
        let trace = { Btmsg.initiator = Proc_id.of_int initiator; seq } in
        let subject = key_of_ints [ src; owner; serial ] in
        match (kind, rest) with
        | 0, visited ->
            Option.map
              (fun visited -> Btmsg.Query { trace; subject; visited = List.map key_of_ints visited })
              (chunks 3 visited)
        | 1, [ 1 ] -> Some (Btmsg.Reply { trace; subject; verdict = Btmsg.Rooted })
        | 1, [ 0 ] -> Some (Btmsg.Reply { trace; subject; verdict = Btmsg.Cycle_back })
        | _ -> None)
    | _ -> None)

let hmsg_sval = function
  | Hmsg.Stamp stamps ->
      let stamp ((o : Oid.t), stamp) =
        Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial; Sval.Int stamp ]
      in
      Sval.Record ("h_stamp", [ ("stamps", Sval.List (List.map stamp stamps)) ])
  | Hmsg.Report { round_time } -> Sval.Record ("h_report", [ ("round_time", Sval.Int round_time) ])
  | Hmsg.Threshold { value } -> Sval.Record ("h_threshold", [ ("value", Sval.Int value) ])

(* One run, [kind; fields...]: a stamp entry is [owner; serial;
   stamp]. *)
let hmsg_bytes t =
  encode_tree
    (Packed
       (match t with
       | Hmsg.Stamp stamps -> 0 :: List.concat_map (fun (o, stamp) -> oid_ints o @ [ stamp ]) stamps
       | Hmsg.Report { round_time } -> [ 1; round_time ]
       | Hmsg.Threshold { value } -> [ 2; value ]))

let hmsg_decode =
  run_decode (function
    | 0 :: entries ->
        Option.map
          (fun entries ->
            Hmsg.Stamp
              (List.map
                 (function
                   | [ owner; serial; stamp ] -> (oid_of_ints [ owner; serial ], stamp)
                   | _ -> assert false)
                 entries))
          (chunks 3 entries)
    | [ 1; round_time ] -> Some (Hmsg.Report { round_time })
    | [ 2; value ] -> Some (Hmsg.Threshold { value })
    | _ -> None)

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
        :: List.concat_map key_ints scions,
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
              scions = List.map key_of_ints keys;
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

(* The message off [next], or [None]; the caller checks the end. *)
let read_msg next =
  match next () with
  | Packed (src :: dst :: seq :: sent_at :: kind :: fields) ->
      let dst = Proc_id.of_int dst in
      Option.map
        (fun payload -> Msg.make ~seq ~src:(Proc_id.of_int src) ~dst ~sent_at payload)
        (payload_of ~batched:false next kind fields)
  | _ -> None

let msg_decode = decode_with read_msg

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

(* Five runs: [rank; tick] and each object as [owner; serial; rooted;
   n; n refs...]; the stubs, the scions and the reclaimed ids as whole
   entries; the counters' values.  Then each counter's name as a
   string. *)
let node_state_trees (t : Gather.node_state) =
  let obj (o : Gather.object_state) =
    oid_ints o.Gather.oid @ [ Bool.to_int o.Gather.rooted; List.length o.Gather.refs ]
    @ List.concat_map oid_ints o.Gather.refs
  in
  [
    Packed (t.Gather.rank :: t.Gather.tick :: List.concat_map obj t.Gather.objects);
    Packed
      (List.concat_map
         (fun (s : Gather.stub_state) -> oid_ints s.Gather.target @ [ s.Gather.stub_ic ])
         t.Gather.stubs);
    Packed
      (List.concat_map
         (fun (s : Gather.scion_state) ->
           key_ints s.Gather.key @ [ s.Gather.scion_ic; Bool.to_int s.Gather.confirmed ])
         t.Gather.scions);
    Packed (List.concat_map oid_ints t.Gather.reclaimed);
    Packed (List.map snd t.Gather.counters);
  ]
  @ List.map (fun (k, _) -> Str k) t.Gather.counters

let read_node_state next =
  let rec objects = function
    | [] -> Some []
    | owner :: serial :: rooted :: n :: rest when n <= List.length rest / 2 -> (
        let refs = List.filteri (fun i _ -> i < 2 * n) rest in
        let rest = List.filteri (fun i _ -> i >= 2 * n) rest in
        match (flag_of_int rooted, chunks 2 refs, objects rest) with
        | Some rooted, Some refs, Some more ->
            Some
              ({ Gather.oid = oid_of_ints [ owner; serial ]; refs = List.map oid_of_ints refs; rooted }
              :: more)
        | _ -> None)
    | _ -> None
  in
  let table width entry = function
    | Packed ints -> (
        match chunks width ints with
        | Some entries ->
            List.fold_right
              (fun e acc -> match (entry e, acc) with Some v, Some l -> Some (v :: l) | _ -> None)
              entries (Some [])
        | None -> None)
    | Str _ | Int _ | Rec _ | Case _ -> None
  in
  let head = next () in
  let stubs =
    table 3
      (function
        | [ owner; serial; stub_ic ] -> Some { Gather.target = oid_of_ints [ owner; serial ]; stub_ic }
        | _ -> None)
      (next ())
  in
  let scions =
    table 5
      (function
        | [ src; owner; serial; scion_ic; confirmed ] ->
            Option.map
              (fun confirmed -> { Gather.key = key_of_ints [ src; owner; serial ]; scion_ic; confirmed })
              (flag_of_int confirmed)
        | _ -> None)
      (next ())
  in
  let reclaimed = table 2 (fun oid -> Some (oid_of_ints oid)) (next ()) in
  let values = table 1 (function [ v ] -> Some v | _ -> None) (next ()) in
  match (head, stubs, scions, reclaimed, values) with
  | Packed (rank :: tick :: objs), Some stubs, Some scions, Some reclaimed, Some values -> (
      let names = List.map (fun _ -> next ()) values in
      let counters =
        List.fold_right2
          (fun name v acc ->
            match (name, acc) with Str k, Some l -> Some ((k, v) :: l) | _ -> None)
          names values (Some [])
      in
      match (objects objs, counters) with
      | Some objects, Some counters ->
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

let node_state_decode = decode_with read_node_state

(* One run, [kind; fields...]; a [Net_msg]'s message and a [State]'s
   runs follow it.  [Hello]'s seed, which alone may be negative, is
   its sign and then its magnitude less one if negative, so every
   seed fits. *)
let envelope_trees = function
  | Envelope.Hello { rank; procs; seed } ->
      let sign, half = if seed < 0 then (1, -(seed + 1)) else (0, seed) in
      [ Packed [ 0; rank; procs; sign; half ] ]
  | Envelope.Start -> [ Packed [ 1 ] ]
  | Envelope.Heartbeat { tick } -> [ Packed [ 2; tick ] ]
  | Envelope.Net_msg m -> Packed [ 3 ] :: msg_trees m
  | Envelope.Status_req -> [ Packed [ 4 ] ]
  | Envelope.Status s ->
      [
        Packed
          ([
             5;
             s.Envelope.st_rank;
             s.Envelope.st_tick;
             Bool.to_int s.Envelope.st_ready;
             s.Envelope.st_wire_sent;
             s.Envelope.st_wire_received;
             s.Envelope.st_dup_ignored;
           ]
          @ List.concat_map oid_ints s.Envelope.st_reclaimed);
      ]
  | Envelope.State_req -> [ Packed [ 6 ] ]
  | Envelope.State ns -> Packed [ 7 ] :: node_state_trees ns
  | Envelope.Drop_peer rank -> [ Packed [ 8; rank ] ]
  | Envelope.Shutdown -> [ Packed [ 9 ] ]
  | Envelope.Bye -> [ Packed [ 10 ] ]

let envelope_bytes e = encode_trees (envelope_trees e)

(* A [net_msg] envelope is the run [3], then the message's own
   bytes. *)
let net_msg_header = encode_tree (Packed [ 3 ])

let envelope_decode =
  decode_with (fun next ->
      match next () with
      | Packed [ 0; rank; procs; sign; half ] when sign <= 1 ->
          Some (Envelope.Hello { rank; procs; seed = (if sign = 1 then -half - 1 else half) })
      | Packed [ 1 ] -> Some Envelope.Start
      | Packed [ 2; tick ] -> Some (Envelope.Heartbeat { tick })
      | Packed [ 3 ] -> Option.map (fun m -> Envelope.Net_msg m) (read_msg next)
      | Packed [ 4 ] -> Some Envelope.Status_req
      | Packed
          (5 :: st_rank :: st_tick :: ready :: st_wire_sent :: st_wire_received :: st_dup_ignored :: ids)
        -> (
          match (flag_of_int ready, chunks 2 ids) with
          | Some st_ready, Some ids ->
              Some
                (Envelope.Status
                   {
                     Envelope.st_rank;
                     st_tick;
                     st_ready;
                     st_reclaimed = List.map oid_of_ints ids;
                     st_wire_sent;
                     st_wire_received;
                     st_dup_ignored;
                   })
          | _ -> None)
      | Packed [ 6 ] -> Some Envelope.State_req
      | Packed [ 7 ] -> Option.map (fun ns -> Envelope.State ns) (read_node_state next)
      | Packed [ 8; rank ] -> Some (Envelope.Drop_peer rank)
      | Packed [ 9 ] -> Some Envelope.Shutdown
      | Packed [ 10 ] -> Some Envelope.Bye
      | _ -> None)
