(* Reference implementation of every wire type as a tree: the
   hand-written Sval builders and tree matchers the shapes and direct
   readers in lib/ replaced.  The wire-identity properties pin every
   shape and reader against these — same bytes, same strictness.

   One deliberate difference from the matchers as they stood in lib/:
   every oid here requires a non-negative owner {e and} serial (the
   envelope and gather matchers used to check only the owner), which
   is the single rule [Oid.read] enforces. *)

open Adgc_algebra
module Sval = Adgc_serial.Sval
module Msg = Adgc_rt.Msg
module Summary = Adgc_snapshot.Summary
module Envelope = Adgc_net.Envelope
module Gather = Adgc_net.Gather

let oid_sval (o : Oid.t) = Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let ref_sval (k : Ref_key.t) =
  Sval.List [ Sval.Int (Proc_id.to_int k.Ref_key.src); oid_sval k.Ref_key.target ]

let oid_of_sval = function
  | Sval.List [ Sval.Int owner; Sval.Int serial ] when owner >= 0 && serial >= 0 ->
      Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial)
  | _ -> None

let key_of_sval = function
  | Sval.List [ Sval.Int src; target ] when src >= 0 ->
      Option.map (fun target -> Ref_key.make ~src:(Proc_id.of_int src) ~target) (oid_of_sval target)
  | _ -> None

let all_some l =
  List.fold_left
    (fun acc v -> match (acc, v) with Some acc, Some v -> Some (v :: acc) | _, _ -> None)
    (Some []) l
  |> Option.map List.rev

let all_of f l = all_some (List.map f l)

(* Bytes to a value the old way: tree decode, then the tree matcher. *)
let tree_decode of_sval bytes =
  match Adgc_serial.Net_codec.decode bytes with
  | sval -> of_sval sval
  | exception Adgc_serial.Wire.Malformed _ -> None

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
        ("source", Sval.List (List.map entry_sval (Algebra.source t)));
        ("target", Sval.List (List.map entry_sval (Algebra.target t)));
      ] )

(* The paper's compact form as one packed run of
   [src; owner; serial; ic; bits], in key order: a key on both sides
   with equal ICs is one entry with bits 3; with different ICs it is
   two, bits 1 then 2. *)
let algebra_compact_sval t =
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
    List.sort_uniq Ref_key.compare (List.map fst (Algebra.source t @ Algebra.target t))
  in
  Sval.Packed
    (List.concat_map
       (fun key ->
         match (Algebra.ic t Algebra.Source key, Algebra.ic t Algebra.Target key) with
         | Some s, Some tg when s = tg -> ce key s 3
         | Some s, Some tg -> ce key s 1 @ ce key tg 2
         | Some s, None -> ce key s 1
         | None, Some tg -> ce key tg 2
         | None, None -> [])
       keys)

let cdm_sval (t : Cdm.t) =
  Sval.Record
    ( "cdm",
      [
        ("initiator", Sval.Int (Proc_id.to_int t.Cdm.id.Detection_id.initiator));
        ("seq", Sval.Int t.Cdm.id.Detection_id.seq);
        ("algebra", algebra_compact_sval t.Cdm.algebra);
        ("f_src", Sval.Int (Proc_id.to_int t.Cdm.frontier.Ref_key.src));
        ("f_owner", Sval.Int (Proc_id.to_int (Oid.owner t.Cdm.frontier.Ref_key.target)));
        ("f_serial", Sval.Int t.Cdm.frontier.Ref_key.target.Oid.serial);
        ("hops", Sval.Int t.Cdm.hops);
        ("budget", Sval.Int t.Cdm.budget);
      ] )

(* The compact form only: the plain form has no writer in lib/ any
   more, so [Cdm.read] accepts only this. *)
let algebra_compact_of_sval = function
  | Sval.Packed ints when List.length ints mod 5 = 0 ->
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
  | _ -> None

let cdm_of_sval = function
  | Sval.Record
      ( "cdm",
        [
          ("initiator", Sval.Int initiator);
          ("seq", Sval.Int seq);
          ("algebra", alg);
          ("f_src", Sval.Int f_src);
          ("f_owner", Sval.Int f_owner);
          ("f_serial", Sval.Int f_serial);
          ("hops", Sval.Int hops);
          ("budget", Sval.Int budget);
        ] )
    when initiator >= 0 && f_src >= 0 && f_owner >= 0 && f_serial >= 0 && hops >= 0 && budget >= 0
    ->
      Option.map
        (fun algebra ->
          let id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq in
          let target = Oid.make ~owner:(Proc_id.of_int f_owner) ~serial:f_serial in
          let frontier = Ref_key.make ~src:(Proc_id.of_int f_src) ~target in
          Cdm.make ~id ~algebra ~frontier ~hops ~budget)
        (algebra_compact_of_sval alg)
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

let bt_ref_of_sval = function
  | Sval.List [ Sval.Int src; Sval.Int owner; Sval.Int serial ]
    when src >= 0 && owner >= 0 && serial >= 0 ->
      Some
        (Ref_key.make ~src:(Proc_id.of_int src)
           ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial))
  | _ -> None

let btmsg_of_sval = function
  | Sval.Record
      ( "bt_query",
        [
          ("initiator", Sval.Int initiator);
          ("seq", Sval.Int seq);
          ("subject", subject);
          ("visited", Sval.List visited);
        ] )
    when initiator >= 0 -> (
      match (bt_ref_of_sval subject, all_of bt_ref_of_sval visited) with
      | Some subject, Some visited ->
          Some
            (Btmsg.Query
               { trace = { Btmsg.initiator = Proc_id.of_int initiator; seq }; subject; visited })
      | _ -> None)
  | Sval.Record
      ( "bt_reply",
        [
          ("initiator", Sval.Int initiator);
          ("seq", Sval.Int seq);
          ("subject", subject);
          ("verdict", Sval.Bool verdict);
        ] )
    when initiator >= 0 ->
      Option.map
        (fun subject ->
          Btmsg.Reply
            {
              trace = { Btmsg.initiator = Proc_id.of_int initiator; seq };
              subject;
              verdict = (if verdict then Btmsg.Rooted else Btmsg.Cycle_back);
            })
        (bt_ref_of_sval subject)
  | _ -> None

let hmsg_sval = function
  | Hmsg.Stamp stamps ->
      let stamp ((o : Oid.t), stamp) =
        Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial; Sval.Int stamp ]
      in
      Sval.Record ("h_stamp", [ ("stamps", Sval.List (List.map stamp stamps)) ])
  | Hmsg.Report { round_time } -> Sval.Record ("h_report", [ ("round_time", Sval.Int round_time) ])
  | Hmsg.Threshold { value } -> Sval.Record ("h_threshold", [ ("value", Sval.Int value) ])

let hmsg_of_sval = function
  | Sval.Record ("h_stamp", [ ("stamps", Sval.List entries) ]) ->
      let stamp = function
        | Sval.List [ Sval.Int owner; Sval.Int serial; Sval.Int stamp ] when owner >= 0 && serial >= 0
          ->
            Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial, stamp)
        | _ -> None
      in
      Option.map (fun stamps -> Hmsg.Stamp stamps) (all_of stamp entries)
  | Sval.Record ("h_report", [ ("round_time", Sval.Int round_time) ]) ->
      Some (Hmsg.Report { round_time })
  | Sval.Record ("h_threshold", [ ("value", Sval.Int value) ]) -> Some (Hmsg.Threshold { value })
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
  | Msg.New_set_stubs { seqno; targets } ->
      (* One packed run of [owner; serial; ic] per stub. *)
      let entry ((o : Oid.t), ic) = [ Proc_id.to_int (Oid.owner o); o.Oid.serial; ic ] in
      Sval.Record
        ( "new_set_stubs",
          [
            ("seqno", Sval.Int seqno);
            ("targets", Sval.Packed (List.concat_map entry (Oid.Map.bindings targets)));
          ] )
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
  | Msg.Group_fwd { orig_src; inner } ->
      Sval.Record
        ("group_fwd", [ ("orig_src", Sval.Int (Proc_id.to_int orig_src)); ("inner", payload_sval inner) ])
  | Msg.Group_relay { entries } ->
      let entry (orig_src, final_dst, p) =
        Sval.List
          [ Sval.Int (Proc_id.to_int orig_src); Sval.Int (Proc_id.to_int final_dst); payload_sval p ]
      in
      Sval.Record ("group_relay", [ ("entries", Sval.List (List.map entry entries)) ])

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

(* Field order is part of the wire format: a reordered record is
   malformed, not merely unusual. *)
let rec payload_of_sval sval =
  match sval with
  | Sval.Record
      ( "rmi_request",
        [
          ("req_id", Sval.Int req_id);
          ("target", target);
          ("args", Sval.List args);
          ("stub_ic", Sval.Int stub_ic);
        ] ) -> (
      match (oid_of_sval target, all_of oid_of_sval args) with
      | Some target, Some args -> Some (Msg.Rmi_request { req_id; target; args; stub_ic })
      | _ -> None)
  | Sval.Record
      ("rmi_reply", [ ("req_id", Sval.Int req_id); ("target", target); ("results", Sval.List results) ])
    -> (
      match (oid_of_sval target, all_of oid_of_sval results) with
      | Some target, Some results -> Some (Msg.Rmi_reply { req_id; target; results })
      | _ -> None)
  | Sval.Record
      ( "export_notice",
        [ ("notice_id", Sval.Int notice_id); ("target", target); ("new_holder", Sval.Int holder) ] )
    when holder >= 0 ->
      Option.map
        (fun target -> Msg.Export_notice { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_sval target)
  | Sval.Record
      ( "export_ack",
        [ ("notice_id", Sval.Int notice_id); ("target", target); ("new_holder", Sval.Int holder) ] )
    when holder >= 0 ->
      Option.map
        (fun target -> Msg.Export_ack { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_sval target)
  | Sval.Record ("new_set_stubs", [ ("seqno", Sval.Int seqno); ("targets", Sval.Packed ints) ])
    when List.length ints mod 3 = 0 ->
      let rec entries = function
        | owner :: serial :: ic :: rest ->
            Option.bind (oid_of_sval (Sval.List [ Sval.Int owner; Sval.Int serial ])) (fun o ->
                Option.map (fun rest -> (o, ic) :: rest) (entries rest))
        | _ -> Some []
      in
      Option.map
        (fun entries ->
          Msg.New_set_stubs
            {
              seqno;
              targets = List.fold_left (fun m (o, ic) -> Oid.Map.add o ic m) Oid.Map.empty entries;
            })
        (entries ints)
  | Sval.Record ("scion_probe", []) -> Some Msg.Scion_probe
  | Sval.Record ("cdm", _) -> Option.map (fun cdm -> Msg.Cdm cdm) (cdm_of_sval sval)
  | Sval.Record
      ( "cdm_delete",
        [ ("initiator", Sval.Int initiator); ("seq", Sval.Int seq); ("scions", Sval.List scions) ]
      )
    when initiator >= 0 ->
      Option.map
        (fun scions ->
          Msg.Cdm_delete
            { id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq; scions })
        (all_of key_of_sval scions)
  | Sval.Record ("ext", [ ("body", Sval.Str body) ]) -> Some (Msg.Ext body)
  | Sval.Record ("batch", [ ("msgs", Sval.List payloads) ]) ->
      (* Batches are never nested and the group wrappers are flat; nor
         does a batch carry references. *)
      let constituent sv =
        match payload_of_sval sv with
        | Some (Msg.Batch _ | Msg.Group_fwd _ | Msg.Group_relay _) -> None
        | Some p when Msg.payload_refs p <> [] -> None
        | (Some _ | None) as r -> r
      in
      Option.map (fun payloads -> Msg.Batch payloads) (all_of constituent payloads)
  | Sval.Record ("group_fwd", [ ("orig_src", Sval.Int orig_src); ("inner", inner) ])
    when orig_src >= 0 -> (
      match payload_of_sval inner with
      | Some (Msg.Batch _ | Msg.Group_fwd _ | Msg.Group_relay _) | None -> None
      | Some inner -> Some (Msg.Group_fwd { orig_src = Proc_id.of_int orig_src; inner }))
  | Sval.Record ("group_relay", [ ("entries", Sval.List entries) ]) ->
      let entry = function
        | Sval.List [ Sval.Int orig_src; Sval.Int final_dst; p ] when orig_src >= 0 && final_dst >= 0
          -> (
            match payload_of_sval p with
            | Some (Msg.Batch _ | Msg.Group_fwd _ | Msg.Group_relay _) | None -> None
            | Some p -> Some (Proc_id.of_int orig_src, Proc_id.of_int final_dst, p))
        | _ -> None
      in
      Option.map (fun entries -> Msg.Group_relay { entries }) (all_of entry entries)
  | _ -> None

let msg_of_sval = function
  | Sval.Record
      ( "msg",
        [
          ("src", Sval.Int src);
          ("dst", Sval.Int dst);
          ("seq", Sval.Int seq);
          ("sent_at", Sval.Int sent_at);
          ("payload", payload);
        ] )
    when src >= 0 && dst >= 0 ->
      Option.map
        (fun payload ->
          Msg.make ~seq ~src:(Proc_id.of_int src) ~dst:(Proc_id.of_int dst) ~sent_at payload)
        (payload_of_sval payload)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Summary *)

let scion_sval (s : Summary.scion_info) =
  Sval.Record
    ( "scion",
      [
        ("key", ref_sval s.Summary.key);
        ("ic", Sval.Int s.Summary.scion_ic);
        ("stubs_from", Sval.List (List.map oid_sval (Oid.Set.elements s.Summary.stubs_from)));
        ("root", Sval.Bool s.Summary.target_locally_reachable);
        ("last_invoked", Sval.Int s.Summary.last_invoked);
      ] )

let stub_sval (s : Summary.stub_info) =
  Sval.Record
    ( "stub",
      [
        ("target", oid_sval s.Summary.target);
        ("ic", Sval.Int s.Summary.stub_ic);
        ("scions_to", Sval.List (List.map ref_sval (Ref_key.Set.elements s.Summary.scions_to)));
        ("local_reach", Sval.Bool s.Summary.local_reach);
      ] )

let summary_sval (t : Summary.t) =
  Sval.Record
    ( "summary",
      [
        ("proc", Sval.Int (Proc_id.to_int t.Summary.proc));
        ("taken_at", Sval.Int t.Summary.taken_at);
        ("scions", Sval.List (List.map scion_sval (Summary.scion_list t)));
        ("stubs", Sval.List (List.map stub_sval (Summary.stub_list t)));
      ] )

let scion_of_sval = function
  | Sval.Record
      ( "scion",
        [
          ("key", key);
          ("ic", Sval.Int scion_ic);
          ("stubs_from", Sval.List stubs_from);
          ("root", Sval.Bool target_locally_reachable);
          ("last_invoked", Sval.Int last_invoked);
        ] ) ->
      Option.bind (key_of_sval key) (fun key ->
          Option.map
            (fun stubs ->
              {
                Summary.key;
                scion_ic;
                stubs_from = Oid.Set.of_list stubs;
                target_locally_reachable;
                last_invoked;
              })
            (all_some (List.map oid_of_sval stubs_from)))
  | _ -> None

let stub_of_sval = function
  | Sval.Record
      ( "stub",
        [
          ("target", target);
          ("ic", Sval.Int stub_ic);
          ("scions_to", Sval.List scions_to);
          ("local_reach", Sval.Bool local_reach);
        ] ) ->
      Option.bind (oid_of_sval target) (fun target ->
          Option.map
            (fun keys ->
              { Summary.target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })
            (all_some (List.map key_of_sval scions_to)))
  | _ -> None

let summary_of_sval = function
  | Sval.Record
      ( "summary",
        [
          ("proc", Sval.Int proc);
          ("taken_at", Sval.Int taken_at);
          ("scions", Sval.List scions);
          ("stubs", Sval.List stubs);
        ] )
    when proc >= 0 ->
      Option.bind (all_some (List.map scion_of_sval scions)) (fun scions ->
          Option.map
            (fun stubs -> Summary.make ~proc:(Proc_id.of_int proc) ~taken_at ~scions ~stubs)
            (all_some (List.map stub_of_sval stubs)))
  | _ -> None

(* The old snapshot read-back. *)
let summary_decode bytes = tree_decode summary_of_sval bytes

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

let node_state_of_sval = function
  | Sval.Record
      ( "node_state",
        [
          ("rank", Sval.Int rank);
          ("tick", Sval.Int tick);
          ("objects", Sval.List objects);
          ("stubs", Sval.List stubs);
          ("scions", Sval.List scions);
          ("reclaimed", Sval.List reclaimed);
          ("counters", Sval.List counters);
        ] ) -> (
      let obj = function
        | Sval.List [ oid; Sval.List refs; Sval.Bool rooted ] -> (
            match (oid_of_sval oid, all_of oid_of_sval refs) with
            | Some oid, Some refs -> Some { Gather.oid; refs; rooted }
            | _ -> None)
        | _ -> None
      in
      let stub = function
        | Sval.List [ target; Sval.Int stub_ic ] ->
            Option.map (fun target -> { Gather.target; stub_ic }) (oid_of_sval target)
        | _ -> None
      in
      let scion = function
        | Sval.List [ key; Sval.Int scion_ic; Sval.Bool confirmed ] ->
            Option.map (fun key -> { Gather.key; scion_ic; confirmed }) (key_of_sval key)
        | _ -> None
      in
      let counter = function Sval.List [ Sval.Str k; Sval.Int v ] -> Some (k, v) | _ -> None in
      match
        ( all_of obj objects,
          all_of stub stubs,
          all_of scion scions,
          all_of oid_of_sval reclaimed,
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

let envelope_of_sval = function
  | Sval.Record ("hello", [ ("rank", Sval.Int rank); ("procs", Sval.Int procs); ("seed", Sval.Int seed) ])
    ->
      Some (Envelope.Hello { rank; procs; seed })
  | Sval.Record ("start", []) -> Some Envelope.Start
  | Sval.Record ("heartbeat", [ ("tick", Sval.Int tick) ]) -> Some (Envelope.Heartbeat { tick })
  | Sval.Record ("net_msg", [ ("msg", m) ]) -> Option.map (fun m -> Envelope.Net_msg m) (msg_of_sval m)
  | Sval.Record ("status_req", []) -> Some Envelope.Status_req
  | Sval.Record
      ( "status",
        [
          ("rank", Sval.Int st_rank);
          ("tick", Sval.Int st_tick);
          ("ready", Sval.Bool st_ready);
          ("reclaimed", Sval.List reclaimed);
          ("wire_sent", Sval.Int st_wire_sent);
          ("wire_received", Sval.Int st_wire_received);
          ("dup_ignored", Sval.Int st_dup_ignored);
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
        (all_of oid_of_sval reclaimed)
  | Sval.Record ("state_req", []) -> Some Envelope.State_req
  | Sval.Record ("state", [ ("node", ns) ]) ->
      Option.map (fun ns -> Envelope.State ns) (node_state_of_sval ns)
  | Sval.Record ("drop_peer", [ ("rank", Sval.Int rank) ]) -> Some (Envelope.Drop_peer rank)
  | Sval.Record ("shutdown", []) -> Some Envelope.Shutdown
  | Sval.Record ("bye", []) -> Some Envelope.Bye
  | _ -> None
