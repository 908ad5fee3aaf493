open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type payload =
  | Rmi_request of { req_id : int; target : Oid.t; args : Oid.t list; stub_ic : int }
  | Rmi_reply of { req_id : int; target : Oid.t; results : Oid.t list }
  | Export_notice of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | Export_ack of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | New_set_stubs of { seqno : int; targets : int Oid.Map.t }
  | Scion_probe
  | Cdm of Cdm.t
  | Cdm_delete of { id : Detection_id.t; scions : Ref_key.t list }
  | Ext of string
  | Batch of payload list

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
    "ext";
    "batch";
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
  | Ext _ -> 8
  | Batch _ -> 9

let kind p = kinds.(kind_index p)

let rec payload_refs = function
  | Rmi_request { target; args; _ } -> target :: args
  | Rmi_reply { target; results; _ } -> target :: results
  | Export_notice { target; _ } | Export_ack { target; _ } -> [ target ]
  | New_set_stubs _ | Scion_probe -> []
  | Cdm _ -> []
  | Cdm_delete _ -> []
  | Ext _ -> []
  | Batch payloads -> List.concat_map payload_refs payloads

(* Ground-truth view: what a delivery can actually import.  A reply's
   [target] names the called object for bookkeeping but is never
   imported at the caller (only [results] are), so a sweep racing the
   reply envelope is legitimate — counting it live would report a
   phantom violation on every proven-dead cycle whose last invocation
   reply is still in transit. *)
let rec live_refs = function
  | Rmi_reply { results; _ } -> results
  | Batch payloads -> List.concat_map live_refs payloads
  | p -> payload_refs p

(* The wire form is positional: a payload is case [kind_index] of a
   sum type, then its fields in declaration order. *)

let arities = [| 4; 3; 3; 3; 2; 0; Cdm.arity; 3; 1; 1 |]

let stub_width = 3

let emit_oids s l =
  N.list s (List.length l);
  List.iter (Oid.emit s) l

let rec emit_payload s p =
  let i = kind_index p in
  N.variant s i arities.(i);
  match p with
  | Rmi_request { req_id; target; args; stub_ic } ->
      N.int s req_id;
      Oid.emit s target;
      emit_oids s args;
      N.int s stub_ic
  | Rmi_reply { req_id; target; results } ->
      N.int s req_id;
      Oid.emit s target;
      emit_oids s results
  | Export_notice { notice_id; target; new_holder } | Export_ack { notice_id; target; new_holder } ->
      N.int s notice_id;
      Oid.emit s target;
      N.int s (Proc_id.to_int new_holder)
  | New_set_stubs { seqno; targets } ->
      N.int s seqno;
      (* One packed run of [owner; serial; ic] per stub. *)
      N.packed s (stub_width * Oid.Map.cardinal targets);
      Oid.Map.iter
        (fun (o : Oid.t) ic ->
          N.raw s (Proc_id.to_int (Oid.owner o));
          N.raw s o.Oid.serial;
          N.raw s ic)
        targets
  | Scion_probe -> ()
  | Cdm cdm -> Cdm.emit s cdm
  | Cdm_delete { id; scions } ->
      N.int s (Proc_id.to_int id.Detection_id.initiator);
      N.int s id.Detection_id.seq;
      N.list s (List.length scions);
      List.iter (Ref_key.emit s) scions
  | Ext body -> N.str s body
  | Batch payloads ->
      N.list s (List.length payloads);
      List.iter (emit_payload s) payloads

let emit s t =
  N.record s 5;
  N.int s (Proc_id.to_int t.src);
  N.int s (Proc_id.to_int t.dst);
  N.int s t.seq;
  N.int s t.sent_at;
  emit_payload s t.payload

(* The reader.  Field order is part of the wire format. *)

let read_proc r =
  let p = R.int r in
  if p < 0 then R.fail r "negative id";
  Proc_id.of_int p

let read_oids r = List.init (R.list r) (fun _ -> Oid.read r)

let read_export r =
  let notice_id = R.int r in
  let target = Oid.read r in
  (notice_id, target, read_proc r)

let rec read_payload r =
  match R.variant r arities with
  | 0 ->
      let req_id = R.int r in
      let target = Oid.read r in
      let args = read_oids r in
      Rmi_request { req_id; target; args; stub_ic = R.int r }
  | 1 ->
      let req_id = R.int r in
      let target = Oid.read r in
      Rmi_reply { req_id; target; results = read_oids r }
  | 2 ->
      let notice_id, target, new_holder = read_export r in
      Export_notice { notice_id; target; new_holder }
  | 3 ->
      let notice_id, target, new_holder = read_export r in
      Export_ack { notice_id; target; new_holder }
  | 4 ->
      let seqno = R.int r in
      let n = R.packed r in
      if n mod stub_width <> 0 then R.fail r "ragged stub set run";
      let rec go k m =
        if k = 0 then m
        else begin
          let owner = R.raw r in
          let serial = R.raw r in
          let ic = R.raw r in
          if owner < 0 || serial < 0 then R.fail r "negative id";
          go (k - 1) (Oid.Map.add (Oid.make ~owner:(Proc_id.of_int owner) ~serial) ic m)
        end
      in
      New_set_stubs { seqno; targets = go (n / stub_width) Oid.Map.empty }
  | 5 -> Scion_probe
  | 6 -> Cdm (Cdm.read r)
  | 7 ->
      let initiator = read_proc r in
      let seq = R.int r in
      let scions = List.init (R.list r) (fun _ -> Ref_key.read r) in
      Cdm_delete { id = Detection_id.make ~initiator ~seq; scions }
  | 8 -> Ext (R.str r)
  | _ ->
      (* Batches are never nested, and a decoded batch must not smuggle
         one in.  Nor does a batch carry references: only ref-free
         control traffic is ever batched, so a constituent with
         references is forged. *)
      let constituent _ =
        match read_payload r with
        | Batch _ -> R.fail r "nested batch"
        | p ->
            if payload_refs p <> [] then R.fail r "batched references";
            p
      in
      Batch (List.init (R.list r) constituent)

let read r =
  R.record r 5;
  let src = read_proc r in
  let dst = read_proc r in
  let seq = R.int r in
  let sent_at = R.int r in
  make ~seq ~src ~dst ~sent_at (read_payload r)

let pp ppf t =
  Format.fprintf ppf "%a->%a@%d %s" Proc_id.pp t.src Proc_id.pp t.dst t.sent_at (kind t.payload)
