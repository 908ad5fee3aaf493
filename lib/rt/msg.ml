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
   sum type, then its fields in declaration order.  A payload of ints
   and oids sends them as one packed run, its fixed fields first and
   then its repeated entries; an oid is its two ints. *)

let arities = [| 1; 1; 1; 1; 1; 0; 1; 1; 1; 1 |]

let raw_oid s (o : Oid.t) =
  N.raw s (Proc_id.to_int (Oid.owner o));
  N.raw s o.Oid.serial

let rec emit_payload s p =
  let i = kind_index p in
  N.variant s i arities.(i);
  match p with
  | Rmi_request { req_id; target; args; stub_ic } ->
      N.packed s (4 + (2 * List.length args));
      N.raw s req_id;
      raw_oid s target;
      N.raw s stub_ic;
      List.iter (raw_oid s) args
  | Rmi_reply { req_id; target; results } ->
      N.packed s (3 + (2 * List.length results));
      N.raw s req_id;
      raw_oid s target;
      List.iter (raw_oid s) results
  | Export_notice { notice_id; target; new_holder } | Export_ack { notice_id; target; new_holder } ->
      N.packed s 4;
      N.raw s notice_id;
      raw_oid s target;
      N.raw s (Proc_id.to_int new_holder)
  | New_set_stubs { seqno; targets } -> (
      (* A stub set goes to its targets' owner, so the run names the
         owner once: [seqno; owner; serial; ic; serial; ic; ...], or
         [seqno] alone when the set is empty. *)
      match Oid.Map.min_binding_opt targets with
      | None ->
          N.packed s 1;
          N.raw s seqno
      | Some (first, _) ->
          let owner = Oid.owner first in
          N.packed s (2 + (2 * Oid.Map.cardinal targets));
          N.raw s seqno;
          N.raw s (Proc_id.to_int owner);
          Oid.Map.iter
            (fun (o : Oid.t) ic ->
              if not (Proc_id.equal (Oid.owner o) owner) then
                invalid_arg "Msg.emit: a stub set's targets have different owners";
              N.raw s o.Oid.serial;
              N.raw s ic)
            targets)
  | Scion_probe -> ()
  | Cdm cdm -> Cdm.emit s cdm
  | Cdm_delete { id; scions } ->
      N.packed s (2 + (3 * List.length scions));
      N.raw s (Proc_id.to_int id.Detection_id.initiator);
      N.raw s id.Detection_id.seq;
      List.iter
        (fun (k : Ref_key.t) ->
          N.raw s (Proc_id.to_int k.Ref_key.src);
          raw_oid s k.Ref_key.target)
        scions
  | Ext body -> N.str s body
  | Batch payloads ->
      N.list s (List.length payloads);
      List.iter (emit_payload s) payloads

(* The envelope: a record of its header run [src; dst; seq; sent_at]
   and the payload. *)
let emit s t =
  N.record s 2;
  N.packed s 4;
  N.raw s (Proc_id.to_int t.src);
  N.raw s (Proc_id.to_int t.dst);
  N.raw s t.seq;
  N.raw s t.sent_at;
  emit_payload s t.payload

(* The reader.  Field order is part of the wire format. *)

let raw_id r =
  let p = R.raw r in
  if p < 0 then R.fail r "negative id";
  p

let read_proc r = Proc_id.of_int (raw_id r)

let read_oid r =
  let owner = raw_id r in
  Oid.make ~owner:(Proc_id.of_int owner) ~serial:(raw_id r)

(* A run of [fixed] ints, then whole entries of [width] ints: the
   number of entries. *)
let run r ~fixed ~width what =
  let n = R.packed r in
  if n < fixed || (n - fixed) mod width <> 0 then R.fail r ("ragged " ^ what ^ " run");
  (n - fixed) / width

let read_export r =
  if R.packed r <> 4 then R.fail r "ragged export run";
  let notice_id = R.raw r in
  let target = read_oid r in
  (notice_id, target, read_proc r)

let rec read_payload r =
  match R.variant r arities with
  | 0 ->
      let k = run r ~fixed:4 ~width:2 "rmi request" in
      let req_id = R.raw r in
      let target = read_oid r in
      let stub_ic = R.raw r in
      Rmi_request { req_id; target; args = List.init k (fun _ -> read_oid r); stub_ic }
  | 1 ->
      let k = run r ~fixed:3 ~width:2 "rmi reply" in
      let req_id = R.raw r in
      let target = read_oid r in
      Rmi_reply { req_id; target; results = List.init k (fun _ -> read_oid r) }
  | 2 ->
      let notice_id, target, new_holder = read_export r in
      Export_notice { notice_id; target; new_holder }
  | 3 ->
      let notice_id, target, new_holder = read_export r in
      Export_ack { notice_id; target; new_holder }
  | 4 ->
      let n = R.packed r in
      (* [seqno] alone, or [seqno; owner] and at least one entry. *)
      if not (n = 1 || (n >= 4 && n mod 2 = 0)) then R.fail r "ragged stub set run";
      let seqno = R.raw r in
      if n = 1 then New_set_stubs { seqno; targets = Oid.Map.empty }
      else begin
        let owner = read_proc r in
        let rec go k m =
          if k = 0 then m
          else begin
            let serial = raw_id r in
            let ic = R.raw r in
            go (k - 1) (Oid.Map.add (Oid.make ~owner ~serial) ic m)
          end
        in
        New_set_stubs { seqno; targets = go ((n - 2) / 2) Oid.Map.empty }
      end
  | 5 -> Scion_probe
  | 6 -> Cdm (Cdm.read r)
  | 7 ->
      let k = run r ~fixed:2 ~width:3 "cdm delete" in
      let initiator = read_proc r in
      let seq = R.raw r in
      let read_key _ =
        let src = read_proc r in
        Ref_key.make ~src ~target:(read_oid r)
      in
      Cdm_delete { id = Detection_id.make ~initiator ~seq; scions = List.init k read_key }
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
  R.record r 2;
  if R.packed r <> 4 then R.fail r "ragged envelope run";
  let src = read_proc r in
  let dst = read_proc r in
  let seq = R.raw r in
  let sent_at = R.raw r in
  make ~seq ~src ~dst ~sent_at (read_payload r)
