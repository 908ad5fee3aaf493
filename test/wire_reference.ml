(* Reference implementation of every wire type, independent of the
   shapes and direct readers in lib/.

   Each type has a named {!Sval} tree builder ([msg_sval], ...): the
   value as a self-describing document, which the tests compare
   values through.  [positional] drops the names, as the wire does —
   a record becomes its fields in order, a sum type's constructor its
   case index and fields — and [encode] writes that tree with the
   same tags as [Net_codec].  [decode_tree] reads any such bytes back
   into a tree, and the [*_of_tree] matchers say which trees are
   valid values.  The wire-identity properties pin every shape and
   reader against these: same bytes, same strictness.

   Every oid here requires a non-negative owner {e and} serial, which
   is the single rule [Oid.read] enforces. *)

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
  | Packed of int list
  | Rec of tree list  (** a record: its fields, in order *)
  | Case of int * tree list  (** case [i] of a sum type, with its fields *)

(* Every sum type's constructors, in constructor order.  A named
   record whose name is one of these is that case on the wire; any
   other record is a plain record.  No name is in two lists. *)
let case_lists =
  [
    [
      "rmi_request"; "rmi_reply"; "export_notice"; "export_ack"; "new_set_stubs"; "scion_probe";
      "cdm"; "cdm_delete"; "ext"; "batch";
    ];
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
        Wire.Writer.varint w (List.length l);
        List.iter (Wire.Writer.varint w) l
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

let encode_tree t =
  let w = Wire.Writer.create () in
  write_tree w t;
  Wire.Writer.contents w

(* A named tree's wire bytes. *)
let encode sval = encode_tree (positional sval)

let decode_tree bytes =
  let r = Wire.Reader.of_string bytes in
  let malformed what = raise (Wire.Malformed { offset = Wire.Reader.pos r; what }) in
  (* Every item takes at least a byte. *)
  let length () =
    let n = Wire.Reader.varint r in
    if n < 0 || n > Wire.Reader.remaining r then malformed "implausible length";
    n
  in
  let rec go () =
    let tag = Wire.Reader.byte r in
    if tag = tag_unit then Unit
    else if tag = tag_false then Bool false
    else if tag = tag_true then Bool true
    else if tag = tag_int then Int (Wire.Reader.varint r)
    else if tag = tag_str then Str (Wire.Reader.string r)
    else if tag = tag_list then List (List.init (length ()) (fun _ -> go ()))
    else if tag = tag_packed then Packed (List.init (length ()) (fun _ -> Wire.Reader.varint r))
    else if tag = tag_record then Rec (List.init (length ()) (fun _ -> go ()))
    else if tag = tag_case then begin
      let i = Wire.Reader.varint r in
      Case (i, List.init (length ()) (fun _ -> go ()))
    end
    else malformed "bad tag"
  in
  let t = go () in
  if not (Wire.Reader.at_end r) then malformed "trailing bytes";
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

(* The paper's compact form as [src; owner; serial; ic; bits] per
   entry, in key order: a key on both sides with equal ICs is one entry
   with bits 3; with different ICs it is two, bits 1 then 2. *)
let algebra_entries t =
  let ce (key : Ref_key.t) ic bits =
    [
      Proc_id.to_int key.Ref_key.src;
      Proc_id.to_int (Oid.owner key.Ref_key.target);
      key.Ref_key.target.Oid.serial;
      ic;
      bits;
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

(* A CDM is one packed run: its header, then its algebra's entries. *)
let cdm_run (t : Cdm.t) =
  Sval.Packed
    ([
       Proc_id.to_int t.Cdm.id.Detection_id.initiator;
       t.Cdm.id.Detection_id.seq;
       Proc_id.to_int t.Cdm.frontier.Ref_key.src;
       Proc_id.to_int (Oid.owner t.Cdm.frontier.Ref_key.target);
       t.Cdm.frontier.Ref_key.target.Oid.serial;
       t.Cdm.hops;
       t.Cdm.budget;
     ]
    @ algebra_entries t.Cdm.algebra)

let cdm_sval t = Sval.Record ("cdm", [ ("run", cdm_run t) ])

(* The compact form only: the plain form has no writer in lib/ any
   more, so [Cdm.read] accepts only this. *)
let algebra_of_entries ints =
  if List.length ints mod 5 <> 0 then None
  else
    let rec entries = function
      | src :: owner :: serial :: ic :: bits :: rest ->
          if src >= 0 && owner >= 0 && serial >= 0 && bits >= 1 && bits <= 3 then
            let target = Oid.make ~owner:(Proc_id.of_int owner) ~serial in
            Option.map
              (fun rest -> (Ref_key.make ~src:(Proc_id.of_int src) ~target, ic, bits) :: rest)
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

(* A CDM's run, as the message case that carries it holds it. *)
let cdm_of_run = function
  | initiator :: seq :: f_src :: f_owner :: f_serial :: hops :: budget :: entries
    when initiator >= 0 && f_src >= 0 && f_owner >= 0 && f_serial >= 0 && hops >= 0 && budget >= 0
    ->
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

(* An oid in a run is its two ints. *)
let oid_ints (o : Oid.t) = [ Proc_id.to_int (Oid.owner o); o.Oid.serial ]

let run name ints = Sval.Record (name, [ ("run", Sval.Packed ints) ])

let rec payload_sval = function
  | Msg.Rmi_request { req_id; target; args; stub_ic } ->
      run "rmi_request" ((req_id :: oid_ints target) @ (stub_ic :: List.concat_map oid_ints args))
  | Msg.Rmi_reply { req_id; target; results } ->
      run "rmi_reply" ((req_id :: oid_ints target) @ List.concat_map oid_ints results)
  | Msg.Export_notice { notice_id; target; new_holder } ->
      run "export_notice" ((notice_id :: oid_ints target) @ [ Proc_id.to_int new_holder ])
  | Msg.Export_ack { notice_id; target; new_holder } ->
      run "export_ack" ((notice_id :: oid_ints target) @ [ Proc_id.to_int new_holder ])
  | Msg.New_set_stubs { seqno; targets } -> (
      (* The owner once, then [serial; ic] per stub; an empty set is
         its seqno alone. *)
      match Oid.Map.bindings targets with
      | [] -> run "new_set_stubs" [ seqno ]
      | (first, _) :: _ as entries ->
          let owner = Oid.owner first in
          if List.exists (fun ((o : Oid.t), _) -> not (Proc_id.equal (Oid.owner o) owner)) entries
          then invalid_arg "Wire_reference.payload_sval: a stub set with two owners";
          run "new_set_stubs"
            (seqno :: Proc_id.to_int owner
            :: List.concat_map (fun ((o : Oid.t), ic) -> [ o.Oid.serial; ic ]) entries))
  | Msg.Scion_probe -> Sval.Record ("scion_probe", [])
  | Msg.Cdm cdm -> cdm_sval cdm
  | Msg.Cdm_delete { id; scions } ->
      run "cdm_delete"
        (Proc_id.to_int id.Detection_id.initiator
        :: id.Detection_id.seq
        :: List.concat_map
             (fun (k : Ref_key.t) -> Proc_id.to_int k.Ref_key.src :: oid_ints k.Ref_key.target)
             scions)
  | Msg.Ext body -> Sval.Record ("ext", [ ("body", Sval.Str body) ])
  | Msg.Batch payloads ->
      Sval.Record ("batch", [ ("msgs", Sval.List (List.map payload_sval payloads)) ])

let msg_sval (t : Msg.t) =
  Sval.Record
    ( "msg",
      [
        ( "header",
          Sval.Packed
            [ Proc_id.to_int t.Msg.src; Proc_id.to_int t.Msg.dst; t.Msg.seq; t.Msg.sent_at ] );
        ("payload", payload_sval t.Msg.payload);
      ] )

(* Oids of a run's entries: pairs of non-negative ints. *)
let rec oids_of_ints = function
  | [] -> Some []
  | owner :: serial :: rest ->
      Option.bind (oid_of_tree (List [ Int owner; Int serial ])) (fun o ->
          Option.map (fun rest -> o :: rest) (oids_of_ints rest))
  | [ _ ] -> None

(* Field order is part of the wire format. *)
let rec payload_of_tree tree =
  match tree with
  | Case (0, [ Packed (req_id :: owner :: serial :: stub_ic :: args) ]) -> (
      match (oids_of_ints [ owner; serial ], oids_of_ints args) with
      | Some [ target ], Some args -> Some (Msg.Rmi_request { req_id; target; args; stub_ic })
      | _ -> None)
  | Case (1, [ Packed (req_id :: owner :: serial :: results) ]) -> (
      match (oids_of_ints [ owner; serial ], oids_of_ints results) with
      | Some [ target ], Some results -> Some (Msg.Rmi_reply { req_id; target; results })
      | _ -> None)
  | Case (2, [ Packed [ notice_id; owner; serial; holder ] ]) when holder >= 0 ->
      Option.map
        (fun target -> Msg.Export_notice { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_tree (List [ Int owner; Int serial ]))
  | Case (3, [ Packed [ notice_id; owner; serial; holder ] ]) when holder >= 0 ->
      Option.map
        (fun target -> Msg.Export_ack { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_tree (List [ Int owner; Int serial ]))
  | Case (4, [ Packed [ seqno ] ]) -> Some (Msg.New_set_stubs { seqno; targets = Oid.Map.empty })
  | Case (4, [ Packed (seqno :: owner :: (_ :: _ :: _ as entries)) ]) when owner >= 0 ->
      let rec go m = function
        | [] -> Some m
        | serial :: ic :: rest ->
            Option.bind (oid_of_tree (List [ Int owner; Int serial ])) (fun o ->
                go (Oid.Map.add o ic m) rest)
        | [ _ ] -> None
      in
      Option.map (fun targets -> Msg.New_set_stubs { seqno; targets }) (go Oid.Map.empty entries)
  | Case (5, []) -> Some Msg.Scion_probe
  | Case (6, [ Packed ints ]) -> Option.map (fun cdm -> Msg.Cdm cdm) (cdm_of_run ints)
  | Case (7, [ Packed (initiator :: seq :: keys) ]) when initiator >= 0 ->
      let rec go = function
        | [] -> Some []
        | src :: owner :: serial :: rest ->
            Option.bind (key_of_tree (List [ Int src; List [ Int owner; Int serial ] ])) (fun k ->
                Option.map (fun rest -> k :: rest) (go rest))
        | _ -> None
      in
      Option.map
        (fun scions ->
          Msg.Cdm_delete
            { id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq; scions })
        (go keys)
  | Case (8, [ Str body ]) -> Some (Msg.Ext body)
  | Case (9, [ List payloads ]) ->
      (* Batches are never nested, nor does a batch carry
         references. *)
      let constituent t =
        match payload_of_tree t with
        | Some (Msg.Batch _) | None -> None
        | Some p when Msg.payload_refs p <> [] -> None
        | r -> r
      in
      Option.map (fun payloads -> Msg.Batch payloads) (all_of constituent payloads)
  | _ -> None

let msg_of_tree = function
  | Rec [ Packed [ src; dst; seq; sent_at ]; payload ] when src >= 0 && dst >= 0 ->
      Option.map
        (fun payload ->
          Msg.make ~seq ~src:(Proc_id.of_int src) ~dst:(Proc_id.of_int dst) ~sent_at payload)
        (payload_of_tree payload)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Summary *)

module Sref = Summary_reference

let scion_sval (s : Sref.scion_info) =
  Sval.Record
    ( "scion",
      [
        ("key", ref_sval s.Sref.key);
        ("ic", Sval.Int s.Sref.scion_ic);
        ("stubs_from", Sval.List (List.map oid_sval (Oid.Set.elements s.Sref.stubs_from)));
        ("root", Sval.Bool s.Sref.target_locally_reachable);
        ("last_invoked", Sval.Int s.Sref.last_invoked);
      ] )

let stub_sval (s : Sref.stub_info) =
  Sval.Record
    ( "stub",
      [
        ("target", oid_sval s.Sref.target);
        ("ic", Sval.Int s.Sref.stub_ic);
        ("scions_to", Sval.List (List.map ref_sval (Ref_key.Set.elements s.Sref.scions_to)));
        ("local_reach", Sval.Bool s.Sref.local_reach);
      ] )

let summary_sval (t : Sref.t) =
  Sval.Record
    ( "summary",
      [
        ("proc", Sval.Int (Proc_id.to_int t.Sref.proc));
        ("taken_at", Sval.Int t.Sref.taken_at);
        ("scions", Sval.List (List.map scion_sval t.Sref.scions));
        ("stubs", Sval.List (List.map stub_sval t.Sref.stubs));
      ] )

(* A summary's entries and runs must strictly ascend: a repeat or an
   inversion is malformed. *)
let rec ascending compare = function
  | a :: (b :: _ as rest) -> compare a b < 0 && ascending compare rest
  | [ _ ] | [] -> true

let ascending_of compare of_tree items =
  Option.bind (all_of of_tree items) (fun l -> if ascending compare l then Some l else None)

let scion_of_tree = function
  | Rec [ key; Int scion_ic; List stubs_from; Bool target_locally_reachable; Int last_invoked ] ->
      Option.bind (key_of_tree key) (fun key ->
          Option.map
            (fun stubs ->
              {
                Sref.key;
                scion_ic;
                stubs_from = Oid.Set.of_list stubs;
                target_locally_reachable;
                last_invoked;
              })
            (ascending_of Oid.compare oid_of_tree stubs_from))
  | _ -> None

let stub_of_tree = function
  | Rec [ target; Int stub_ic; List scions_to; Bool local_reach ] ->
      Option.bind (oid_of_tree target) (fun target ->
          Option.map
            (fun keys -> { Sref.target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })
            (ascending_of Ref_key.compare key_of_tree scions_to))
  | _ -> None

let by_key (a : Sref.scion_info) (b : Sref.scion_info) = Ref_key.compare a.Sref.key b.Sref.key

let by_target (a : Sref.stub_info) (b : Sref.stub_info) = Oid.compare a.Sref.target b.Sref.target

let summary_of_tree = function
  | Rec [ Int proc; Int taken_at; List scions; List stubs ] when proc >= 0 ->
      Option.bind (ascending_of by_key scion_of_tree scions) (fun scions ->
          Option.map
            (fun stubs -> { Sref.proc = Proc_id.of_int proc; taken_at; scions; stubs })
            (ascending_of by_target stub_of_tree stubs))
  | _ -> None

(* The reference snapshot read-back. *)
let summary_decode bytes = tree_decode summary_of_tree bytes

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
  | Case (3, [ m ]) -> Option.map (fun m -> Envelope.Net_msg m) (msg_of_tree m)
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
