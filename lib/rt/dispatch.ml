open Adgc_algebra
module Stats = Adgc_util.Stats
module Span = Adgc_obs.Span
module Lineage = Adgc_obs.Lineage

(* Payload handling is separate from envelope acceptance: the
   duplicate check below runs once per envelope, so the constituents
   of a [Batch] (which share their envelope's sequence number) are
   not mistaken for replays of each other. *)
let rec handle_payload rt (msg : Msg.t) (at : Process.t) payload =
  match payload with
  | Msg.Batch payloads ->
      (* Unpack in queueing order; each constituent is handled as if
         it had arrived alone (same envelope timestamps). *)
      Stats.add rt.Runtime.stats "net.msg.unbatched" (List.length payloads);
      List.iter (handle_payload rt msg at) payloads
  | Msg.Rmi_request { req_id; target; args; stub_ic } ->
      Rmi.handle_request rt ~at ~src:msg.Msg.src ~req_id ~target ~args ~stub_ic
  | Msg.Rmi_reply { req_id; target; results } -> Rmi.handle_reply rt ~at ~req_id ~target ~results
  | Msg.Export_notice { notice_id; target; new_holder } ->
      Reflist.handle_export_notice rt ~at ~src:msg.Msg.src ~notice_id ~target ~new_holder
  | Msg.Export_ack { notice_id; _ } -> Reflist.handle_export_ack rt ~at ~notice_id
  | Msg.New_set_stubs { seqno; serials; ics } ->
      Reflist.handle_new_set rt ~at ~src:msg.Msg.src ~seqno ~serials ~ics
  | Msg.Scion_probe -> Reflist.handle_probe rt ~at ~src:msg.Msg.src
  | Msg.Cdm cdm ->
      (* One network hop of the detection: spans the transit time and
         nests under the detection span when lineage knows it. *)
      if Span.enabled rt.Runtime.obs then begin
        let parent = Lineage.span rt.Runtime.lineage cdm.Cdm.id in
        let span =
          Span.begin_span rt.Runtime.obs ~time:msg.Msg.sent_at ?parent
            ~proc:(Proc_id.to_int msg.Msg.dst) ~kind:Span.Cdm_hop
            (Printf.sprintf "cdm %s hop %d" (Detection_id.to_string cdm.Cdm.id) cdm.Cdm.hops)
        in
        Span.end_span rt.Runtime.obs
          ~time:(Scheduler.now rt.Runtime.sched)
          ~args:
            [
              ("from", Proc_id.to_string msg.Msg.src);
              ("budget", string_of_int cdm.Cdm.budget);
            ]
          span
      end;
      (match at.Process.on_cdm with
      | Some f -> f cdm
      | None -> Stats.incr rt.Runtime.stats "cdm.unhandled")
  | Msg.Cdm_delete { id; scions } -> (
      match at.Process.on_cdm_delete with
      | Some f -> f id scions
      | None -> Stats.incr rt.Runtime.stats "cdm_delete.unhandled")
  | Msg.Ext body -> (
      match at.Process.on_ext with
      | Some f -> f ~src:msg.Msg.src body
      | None -> Stats.incr rt.Runtime.stats "ext.unhandled")

let deliver rt (msg : Msg.t) =
  let at = Runtime.proc rt msg.Msg.dst in
  if not at.Process.alive then Stats.incr rt.Runtime.stats "net.msg.dead_endpoint"
  else if not (Process.note_delivery at ~src:msg.Msg.src ~seq:msg.Msg.seq) then
    (* A replayed envelope (network duplication, or an adversarial
       re-send in the tests): every handler above runs at most once
       per sequenced envelope, which is what makes delivery
       idempotent. *)
    Stats.incr rt.Runtime.stats "net.msg.duplicate_ignored"
  else handle_payload rt msg at msg.Msg.payload
