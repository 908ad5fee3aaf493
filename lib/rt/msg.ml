open Adgc_algebra
module Sval = Adgc_serial.Sval
module N = Adgc_serial.Net_codec

type payload =
  | Rmi_request of { req_id : int; target : Oid.t; args : Oid.t list; stub_ic : int }
  | Rmi_reply of { req_id : int; target : Oid.t; results : Oid.t list }
  | Export_notice of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | Export_ack of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | New_set_stubs of { seqno : int; targets : int Oid.Map.t }
  | Scion_probe
  | Cdm of Cdm.t
  | Cdm_delete of { id : Detection_id.t; scions : Ref_key.t list }
  | Bt of Btmsg.t
  | Hughes of Hmsg.t
  | Batch of payload list
  | Group_fwd of { orig_src : Proc_id.t; inner : payload }
  | Group_relay of { entries : (Proc_id.t * Proc_id.t * payload) list }

type t = { src : Proc_id.t; dst : Proc_id.t; seq : int; sent_at : int; payload : payload }

let make ?(seq = -1) ~src ~dst ~sent_at payload = { src; dst; seq; sent_at; payload }

let kinds =
  [|
    "rmi_request";
    "rmi_reply";
    "export_notice";
    "export_ack";
    "new_set_stubs";
    "scion_probe";
    "cdm";
    "cdm_delete";
    "bt";
    "hughes";
    "batch";
    "group_fwd";
    "group_relay";
  |]

let kind_index = function
  | Rmi_request _ -> 0
  | Rmi_reply _ -> 1
  | Export_notice _ -> 2
  | Export_ack _ -> 3
  | New_set_stubs _ -> 4
  | Scion_probe -> 5
  | Cdm _ -> 6
  | Cdm_delete _ -> 7
  | Bt _ -> 8
  | Hughes _ -> 9
  | Batch _ -> 10
  | Group_fwd _ -> 11
  | Group_relay _ -> 12

let kind p = kinds.(kind_index p)

let rec payload_refs = function
  | Rmi_request { target; args; _ } -> target :: args
  | Rmi_reply { target; results; _ } -> target :: results
  | Export_notice { target; _ } | Export_ack { target; _ } -> [ target ]
  | New_set_stubs _ | Scion_probe -> []
  | Cdm _ -> []
  | Cdm_delete _ -> []
  | Bt _ -> []
  | Hughes _ -> []
  | Batch payloads -> List.concat_map payload_refs payloads
  | Group_fwd { inner; _ } -> payload_refs inner
  | Group_relay { entries } -> List.concat_map (fun (_, _, p) -> payload_refs p) entries

(* Ground-truth view: what a delivery can actually import.  A reply's
   [target] names the called object for bookkeeping but is never
   imported at the caller (only [results] are), so a sweep racing the
   reply envelope is legitimate — counting it live would report a
   phantom violation on every proven-dead cycle whose last invocation
   reply is still in transit. *)
let rec live_refs = function
  | Rmi_reply { results; _ } -> results
  | Batch payloads -> List.concat_map live_refs payloads
  | Group_fwd { inner; _ } -> live_refs inner
  | Group_relay { entries } -> List.concat_map (fun (_, _, p) -> live_refs p) entries
  | p -> payload_refs p

let n_rmi_request = N.Name.v "rmi_request"
let n_rmi_reply = N.Name.v "rmi_reply"
let n_export_notice = N.Name.v "export_notice"
let n_export_ack = N.Name.v "export_ack"
let n_new_set_stubs = N.Name.v "new_set_stubs"
let n_scion_probe = N.Name.v "scion_probe"
let n_cdm_delete = N.Name.v "cdm_delete"
let n_batch = N.Name.v "batch"
let n_group_fwd = N.Name.v "group_fwd"
let n_group_relay = N.Name.v "group_relay"
let n_msg = N.Name.v "msg"
let n_req_id = N.Name.v "req_id"
let n_target = N.Name.v "target"
let n_args = N.Name.v "args"
let n_stub_ic = N.Name.v "stub_ic"
let n_results = N.Name.v "results"
let n_notice_id = N.Name.v "notice_id"
let n_new_holder = N.Name.v "new_holder"
let n_seqno = N.Name.v "seqno"
let n_targets = N.Name.v "targets"
let n_initiator = N.Name.v "initiator"
let n_seq = N.Name.v "seq"
let n_scions = N.Name.v "scions"
let n_msgs = N.Name.v "msgs"
let n_orig_src = N.Name.v "orig_src"
let n_inner = N.Name.v "inner"
let n_entries = N.Name.v "entries"
let n_src = N.Name.v "src"
let n_dst = N.Name.v "dst"
let n_sent_at = N.Name.v "sent_at"
let n_payload = N.Name.v "payload"

let emit_oids s l =
  N.list s (List.length l);
  List.iter (Oid.emit s) l

let emit_export s name notice_id target new_holder =
  N.record s name 3;
  N.field s n_notice_id;
  N.int s notice_id;
  N.field s n_target;
  Oid.emit s target;
  N.field s n_new_holder;
  N.int s (Proc_id.to_int new_holder)

let rec emit_payload s = function
  | Rmi_request { req_id; target; args; stub_ic } ->
      N.record s n_rmi_request 4;
      N.field s n_req_id;
      N.int s req_id;
      N.field s n_target;
      Oid.emit s target;
      N.field s n_args;
      emit_oids s args;
      N.field s n_stub_ic;
      N.int s stub_ic
  | Rmi_reply { req_id; target; results } ->
      N.record s n_rmi_reply 3;
      N.field s n_req_id;
      N.int s req_id;
      N.field s n_target;
      Oid.emit s target;
      N.field s n_results;
      emit_oids s results
  | Export_notice { notice_id; target; new_holder } ->
      emit_export s n_export_notice notice_id target new_holder
  | Export_ack { notice_id; target; new_holder } ->
      emit_export s n_export_ack notice_id target new_holder
  | New_set_stubs { seqno; targets } ->
      N.record s n_new_set_stubs 2;
      N.field s n_seqno;
      N.int s seqno;
      N.field s n_targets;
      N.list s (Oid.Map.cardinal targets);
      Oid.Map.iter
        (fun o ic ->
          N.list s 2;
          Oid.emit s o;
          N.int s ic)
        targets
  | Scion_probe -> N.record s n_scion_probe 0
  | Cdm cdm -> Cdm.emit s cdm
  | Cdm_delete { id; scions } ->
      N.record s n_cdm_delete 3;
      N.field s n_initiator;
      N.int s (Proc_id.to_int id.Detection_id.initiator);
      N.field s n_seq;
      N.int s id.Detection_id.seq;
      N.field s n_scions;
      N.list s (List.length scions);
      List.iter (Ref_key.emit s) scions
  | Bt bt -> N.sval s (Btmsg.to_sval bt)
  | Hughes h -> N.sval s (Hmsg.to_sval h)
  | Batch payloads ->
      N.record s n_batch 1;
      N.field s n_msgs;
      N.list s (List.length payloads);
      List.iter (emit_payload s) payloads
  | Group_fwd { orig_src; inner } ->
      N.record s n_group_fwd 2;
      N.field s n_orig_src;
      N.int s (Proc_id.to_int orig_src);
      N.field s n_inner;
      emit_payload s inner
  | Group_relay { entries } ->
      N.record s n_group_relay 1;
      N.field s n_entries;
      N.list s (List.length entries);
      List.iter
        (fun (orig_src, final_dst, p) ->
          N.list s 3;
          N.int s (Proc_id.to_int orig_src);
          N.int s (Proc_id.to_int final_dst);
          emit_payload s p)
        entries

let emit s t =
  N.record s n_msg 5;
  N.field s n_src;
  N.int s (Proc_id.to_int t.src);
  N.field s n_dst;
  N.int s (Proc_id.to_int t.dst);
  N.field s n_seq;
  N.int s t.seq;
  N.field s n_sent_at;
  N.int s t.sent_at;
  N.field s n_payload;
  emit_payload s t.payload

let payload_sval p = N.to_sval emit_payload p

let to_sval t = N.to_sval emit t

(* Decoders.  Like {!Cdm.of_sval}, field order is part of the wire
   format: a reordered record is malformed, not merely unusual. *)

let oid_of_sval = function
  | Sval.List [ Sval.Int owner; Sval.Int serial ] when owner >= 0 && serial >= 0 ->
      Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial)
  | _ -> None

let ref_of_sval = function
  | Sval.List [ Sval.Int src; oid ] when src >= 0 ->
      Option.map (fun target -> Ref_key.make ~src:(Proc_id.of_int src) ~target) (oid_of_sval oid)
  | _ -> None

let all_of f svals =
  List.fold_right
    (fun sv acc ->
      match (acc, f sv) with Some acc, Some v -> Some (v :: acc) | _ -> None)
    svals (Some [])

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
      | Some target, Some args -> Some (Rmi_request { req_id; target; args; stub_ic })
      | _ -> None)
  | Sval.Record
      ("rmi_reply", [ ("req_id", Sval.Int req_id); ("target", target); ("results", Sval.List results) ])
    -> (
      match (oid_of_sval target, all_of oid_of_sval results) with
      | Some target, Some results -> Some (Rmi_reply { req_id; target; results })
      | _ -> None)
  | Sval.Record
      ( "export_notice",
        [ ("notice_id", Sval.Int notice_id); ("target", target); ("new_holder", Sval.Int holder) ] )
    when holder >= 0 ->
      Option.map
        (fun target ->
          Export_notice { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_sval target)
  | Sval.Record
      ( "export_ack",
        [ ("notice_id", Sval.Int notice_id); ("target", target); ("new_holder", Sval.Int holder) ] )
    when holder >= 0 ->
      Option.map
        (fun target -> Export_ack { notice_id; target; new_holder = Proc_id.of_int holder })
        (oid_of_sval target)
  | Sval.Record ("new_set_stubs", [ ("seqno", Sval.Int seqno); ("targets", Sval.List entries) ]) ->
      let entry = function
        | Sval.List [ oid; Sval.Int ic ] -> Option.map (fun o -> (o, ic)) (oid_of_sval oid)
        | _ -> None
      in
      Option.map
        (fun entries ->
          New_set_stubs
            {
              seqno;
              targets = List.fold_left (fun m (o, ic) -> Oid.Map.add o ic m) Oid.Map.empty entries;
            })
        (all_of entry entries)
  | Sval.Record ("scion_probe", []) -> Some Scion_probe
  | Sval.Record ("cdm", _) -> Option.map (fun cdm -> Cdm cdm) (Cdm.of_sval sval)
  | Sval.Record
      ( "cdm_delete",
        [ ("initiator", Sval.Int initiator); ("seq", Sval.Int seq); ("scions", Sval.List scions) ]
      )
    when initiator >= 0 ->
      Option.map
        (fun scions ->
          Cdm_delete
            { id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq; scions })
        (all_of ref_of_sval scions)
  | Sval.Record (("bt_query" | "bt_reply"), _) ->
      Option.map (fun bt -> Bt bt) (Btmsg.of_sval sval)
  | Sval.Record (("h_stamp" | "h_report" | "h_threshold"), _) ->
      Option.map (fun h -> Hughes h) (Hmsg.of_sval sval)
  | Sval.Record ("batch", [ ("msgs", Sval.List payloads) ]) ->
      (* Batches are never nested, and a decoded batch must not smuggle
         one in.  The group wrappers are likewise flat: a relayed
         payload is always a bare DGC control message.  Nor does a
         batch carry references: only ref-free control traffic is
         ever batched, so a constituent with references is forged. *)
      let constituent sv =
        match payload_of_sval sv with
        | Some (Batch _ | Group_fwd _ | Group_relay _) -> None
        | Some p when payload_refs p <> [] -> None
        | (Some _ | None) as r -> r
      in
      Option.map (fun payloads -> Batch payloads) (all_of constituent payloads)
  | Sval.Record ("group_fwd", [ ("orig_src", Sval.Int orig_src); ("inner", inner) ])
    when orig_src >= 0 -> (
      match payload_of_sval inner with
      | Some (Batch _ | Group_fwd _ | Group_relay _) | None -> None
      | Some inner -> Some (Group_fwd { orig_src = Proc_id.of_int orig_src; inner }))
  | Sval.Record ("group_relay", [ ("entries", Sval.List entries) ]) ->
      let entry = function
        | Sval.List [ Sval.Int orig_src; Sval.Int final_dst; p ] when orig_src >= 0 && final_dst >= 0
          -> (
            match payload_of_sval p with
            | Some (Batch _ | Group_fwd _ | Group_relay _) | None -> None
            | Some p -> Some (Proc_id.of_int orig_src, Proc_id.of_int final_dst, p))
        | _ -> None
      in
      Option.map (fun entries -> Group_relay { entries }) (all_of entry entries)
  | _ -> None

let of_sval = function
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
          make ~seq ~src:(Proc_id.of_int src) ~dst:(Proc_id.of_int dst) ~sent_at payload)
        (payload_of_sval payload)
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "%a->%a@%d %s" Proc_id.pp t.src Proc_id.pp t.dst t.sent_at (kind t.payload)
