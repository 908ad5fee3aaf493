open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type payload =
  | Rmi_request of { req_id : int; target : Oid.t; args : Oid.t list; stub_ic : int }
  | Rmi_reply of { req_id : int; target : Oid.t; results : Oid.t list }
  | Export_notice of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | Export_ack of { notice_id : int; target : Oid.t; new_holder : Proc_id.t }
  | New_set_stubs of { seqno : int; serials : int array; ics : int array }
  | Scion_probe
  | Cdm of Cdm.t
  | Cdm_delete of { id : Detection_id.t; scions : Ref_key.t list }
  | Ext of string
  | Batch of payload list

type t = { src : Proc_id.t; dst : Proc_id.t; seq : int; sent_at : int; payload : payload }

let make ~seq ~src ~dst ~sent_at payload = { src; dst; seq; sent_at; payload }

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

(* The wire form is one packed run of unsigned ints per envelope: the
   header [src; dst; seq; sent_at], the payload's kind, then its
   fields, an oid as {!Oid.emit} writes it.  An [Ext]'s body follows the run
   as a string; a [Batch]'s run ends with its count, and each
   constituent follows as a run of its own, [kind; fields...]. *)

let header = 4

(* How many ints a payload writes after its kind. *)
let fields = function
  | Rmi_request { args; _ } -> 4 + (2 * List.length args)
  | Rmi_reply { results; _ } -> 3 + (2 * List.length results)
  | Export_notice _ | Export_ack _ -> 4
  | New_set_stubs { serials; _ } -> 1 + (2 * Array.length serials)
  | Scion_probe | Ext _ -> 0
  | Cdm cdm -> Cdm.items cdm
  | Cdm_delete { scions; _ } -> 2 + (3 * List.length scions)
  | Batch _ -> 1

let emit_fields s = function
  | Rmi_request { req_id; target; args; stub_ic } ->
      N.raw s req_id;
      Oid.emit s target;
      N.raw s stub_ic;
      List.iter (Oid.emit s) args
  | Rmi_reply { req_id; target; results } ->
      N.raw s req_id;
      Oid.emit s target;
      List.iter (Oid.emit s) results
  | Export_notice { notice_id; target; new_holder } | Export_ack { notice_id; target; new_holder } ->
      N.raw s notice_id;
      Oid.emit s target;
      N.raw s (Proc_id.to_int new_holder)
  | New_set_stubs { seqno; serials; ics } ->
      (* A stub set goes to its targets' owner, so the owner is the
         envelope's [dst].  Serials ascend, and each is sent as its
         gap to the one before: [seqno; serial; ic; gap; ic; ...].  A
         serial that does not ascend leaves a negative gap, which
         [N.raw] refuses. *)
      if Array.length ics <> Array.length serials then
        invalid_arg "Msg.emit: a stub set with more serials than ICs or fewer";
      N.raw s seqno;
      for i = 0 to Array.length serials - 1 do
        N.raw s (serials.(i) - (if i = 0 then -1 else serials.(i - 1)) - 1);
        N.raw s ics.(i)
      done
  | Scion_probe | Ext _ -> ()
  | Cdm cdm -> Cdm.emit_items s cdm
  | Cdm_delete { id; scions } ->
      N.raw s (Proc_id.to_int id.Detection_id.initiator);
      N.raw s id.Detection_id.seq;
      List.iter (Ref_key.emit s) scions
  | Batch payloads -> N.raw s (List.length payloads)

(* The payload's kind and fields, closing the run its caller opened,
   then what follows the run: an [Ext]'s body, a [Batch]'s
   constituents. *)
let rec emit_body s p =
  N.raw s (kind_index p);
  emit_fields s p;
  match p with
  | Ext body -> N.str s body
  | Batch payloads -> List.iter (emit_payload s) payloads
  | _ -> ()

and emit_payload s p =
  N.packed s (1 + fields p);
  emit_body s p

let emit s t =
  N.packed s (header + 1 + fields t.payload);
  N.raw s (Proc_id.to_int t.src);
  N.raw s (Proc_id.to_int t.dst);
  N.raw s t.seq;
  N.raw s t.sent_at;
  emit_body s t.payload

(* The reader.  Field order is part of the wire format; a run holds no
   negative int, so no id is negative. *)

let read_proc r = Proc_id.of_int (R.raw r)

let read_export r k =
  if k <> 4 then R.fail r "ragged export run";
  let notice_id = R.raw r in
  let target = Oid.read r in
  (notice_id, target, read_proc r)

(* A payload whose run has [k] ints left after its kind. *)
let rec read_payload r ~batched k =
  match R.raw r with
  | 0 ->
      let n = R.entries r k ~fixed:4 ~width:2 "rmi request" in
      let req_id = R.raw r in
      let target = Oid.read r in
      let stub_ic = R.raw r in
      Rmi_request { req_id; target; args = List.init n (fun _ -> Oid.read r); stub_ic }
  | 1 ->
      let n = R.entries r k ~fixed:3 ~width:2 "rmi reply" in
      let req_id = R.raw r in
      let target = Oid.read r in
      Rmi_reply { req_id; target; results = List.init n (fun _ -> Oid.read r) }
  | 2 ->
      let notice_id, target, new_holder = read_export r k in
      Export_notice { notice_id; target; new_holder }
  | 3 ->
      let notice_id, target, new_holder = read_export r k in
      Export_ack { notice_id; target; new_holder }
  | 4 ->
      let n = R.entries r k ~fixed:1 ~width:2 "stub set" in
      let seqno = R.raw r in
      let serials = Array.make n 0 and ics = Array.make n 0 in
      for i = 0 to n - 1 do
        let serial = (if i = 0 then -1 else serials.(i - 1)) + 1 + R.raw r in
        (* Past [max_int], the sum wraps negative. *)
        if serial < 0 then R.fail r "stub set serial out of range";
        serials.(i) <- serial;
        ics.(i) <- R.raw r
      done;
      New_set_stubs { seqno; serials; ics }
  | 5 ->
      if k <> 0 then R.fail r "ragged scion probe run";
      Scion_probe
  | 6 -> Cdm (Cdm.read_items r k)
  | 7 ->
      let n = R.entries r k ~fixed:2 ~width:3 "cdm delete" in
      let initiator = read_proc r in
      let seq = R.raw r in
      let scions = List.init n (fun _ -> Ref_key.read r) in
      Cdm_delete { id = Detection_id.make ~initiator ~seq; scions }
  | 8 ->
      if k <> 0 then R.fail r "ragged ext run";
      Ext (R.str r)
  | 9 ->
      (* Batches are never nested.  Nor does a batch carry references:
         only ref-free control traffic is ever batched, so a
         constituent with references is forged. *)
      if batched then R.fail r "nested batch";
      if k <> 1 then R.fail r "ragged batch run";
      let rec go n acc =
        if n = 0 then List.rev acc
        else begin
          let k = R.packed r in
          if k < 1 then R.fail r "empty batched run";
          let p = read_payload r ~batched:true (k - 1) in
          if payload_refs p <> [] then R.fail r "batched references";
          go (n - 1) (p :: acc)
        end
      in
      Batch (go (R.raw r) [])
  | _ -> R.fail r "unknown payload kind"

let read r =
  let n = R.packed r in
  if n < header + 1 then R.fail r "short envelope run";
  let src = read_proc r in
  let dst = read_proc r in
  let seq = R.raw r in
  let sent_at = R.raw r in
  make ~seq ~src ~dst ~sent_at (read_payload r ~batched:false (n - header - 1))
