(* Reference implementation of the hot wire types' trees: the
   hand-written Sval builders (and the summary's tree decoder) the
   shapes in lib/ replaced.  The wire-identity properties pin every
   shape against these — same tree, same bytes, same strictness. *)

open Adgc_algebra
module Sval = Adgc_serial.Sval
module Msg = Adgc_rt.Msg
module Summary = Adgc_snapshot.Summary

let oid_sval (o : Oid.t) = Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let ref_sval (k : Ref_key.t) =
  Sval.List [ Sval.Int (Proc_id.to_int k.Ref_key.src); oid_sval k.Ref_key.target ]

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

let algebra_compact_sval t =
  let ce (key, ic, bits) =
    Sval.Record ("ce", key_fields key @ [ ("ic", Sval.Int ic); ("bits", Sval.Int bits) ])
  in
  let source =
    List.map
      (fun (key, s_ic) ->
        if Algebra.ic t Algebra.Target key = Some s_ic then (key, s_ic, 3) else (key, s_ic, 1))
      (Algebra.source t)
  in
  let target =
    List.filter_map
      (fun (key, t_ic) ->
        if Algebra.ic t Algebra.Source key = Some t_ic then None else Some (key, t_ic, 2))
      (Algebra.target t)
  in
  Sval.Record ("algebra_c", [ ("entries", Sval.List (List.map ce (source @ target))) ])

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
      let entry (o, ic) = Sval.List [ oid_sval o; Sval.Int ic ] in
      Sval.Record
        ( "new_set_stubs",
          [
            ("seqno", Sval.Int seqno);
            ("targets", Sval.List (List.map entry (Oid.Map.bindings targets)));
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
  | Msg.Bt bt -> Btmsg.to_sval bt
  | Msg.Hughes h -> Hmsg.to_sval h
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

(* The old snapshot read-back: tree decode, then the tree matcher. *)
let summary_decode bytes =
  match Adgc_serial.Net_codec.decode bytes with
  | sval -> summary_of_sval sval
  | exception Adgc_serial.Wire.Malformed _ -> None
