open Adgc_algebra
module Stats = Adgc_util.Stats

let noop_behavior _rt _p ~target:_ ~args:_ = []

(* When [rmi_marshal] is on, do the real serialization work an RMI
   implies at each end: encode the descriptor and read it back
   (marshal at the sender, unmarshal at the receiver), as the socket
   driver does. *)
let marshal_work rt ~src ~dst payload =
  if rt.Runtime.config.rmi_marshal then
    let msg = Msg.make ~seq:0 ~src ~dst ~sent_at:(Runtime.now rt) payload in
    ignore (Adgc_serial.Net_codec.(Read.run Msg.read (encode_shape Msg.emit msg)) : Msg.t)

(* After this long, pins taken for an RMI whose reply never arrived
   are dropped (limits floating garbage under loss). *)
let pin_timeout = 5_000

(* Caller-side transition: the pending-call table and the pins are the
   caller's own state. *)
let release_pins (p : Process.t) req_id =
  match Hashtbl.find_opt p.Process.pending_calls req_id with
  | None -> None
  | Some pending ->
      Hashtbl.remove p.Process.pending_calls req_id;
      List.iter (Stub_table.unpin p.Process.stubs) pending.Process.pinned;
      Some pending

let call rt ~src ~target ?(args = []) ?(behavior = noop_behavior) ?on_reply () =
  let p = Runtime.proc rt src in
  if Proc_id.equal (Oid.owner target) src then
    invalid_arg (Format.asprintf "Rmi.call: %a is local to %a" Oid.pp target Proc_id.pp src);
  if rt.Runtime.config.dgc_enabled && not (Stub_table.mem p.Process.stubs target) then
    invalid_arg
      (Format.asprintf "Rmi.call: %a holds no stub for %a" Proc_id.pp src Oid.pp target);
  Stats.incr rt.Runtime.stats "rmi.calls";
  let dgc = rt.Runtime.config.dgc_enabled in
  (* Bump the stub-side counter and piggy-back the new value on the
     request, as the paper prescribes (§3.2). *)
  let stub_ic = if dgc then Stub_table.bump_ic p.Process.stubs target else 0 in
  (* Pin everything the call references until the reply (or timeout). *)
  let now = Runtime.now rt in
  let remote_args = List.filter (fun a -> not (Proc_id.equal (Oid.owner a) src)) args in
  let pinned = if dgc then target :: remote_args else [] in
  List.iter (Stub_table.pin p.Process.stubs ~now) pinned;
  if dgc then List.iter (fun a -> Reflist.export_ref rt ~from_:p ~to_:(Oid.owner target) a) args;
  (* Request ids are minted per caller; the wire pairs them with the
     caller's identity, so distinct callers reusing the same number
     can never collide. *)
  let req_id = Process.fresh_req_id p in
  Hashtbl.replace p.Process.behaviors req_id (fun at ~target ~args -> behavior rt at ~target ~args);
  Hashtbl.replace p.Process.pending_calls req_id
    { Process.call_target = target; pinned; on_reply };
  (* The marshalling work Table 1's base cost consists of. *)
  marshal_work rt ~src ~dst:(Oid.owner target) (Msg.Rmi_request { req_id; target; args; stub_ic });
  Scheduler.schedule_after rt.Runtime.sched ~delay:pin_timeout (fun () ->
      match release_pins p req_id with
      | Some _ -> Stats.incr rt.Runtime.stats "rmi.pin_timeouts"
      | None -> ());
  Runtime.send rt ~src ~dst:(Oid.owner target) (Msg.Rmi_request { req_id; target; args; stub_ic })

let handle_request rt ~(at : Process.t) ~src ~req_id ~target ~args ~stub_ic =
  (* Unmarshal the incoming request. *)
  marshal_work rt ~src ~dst:at.Process.id (Msg.Rmi_request { req_id; target; args; stub_ic });
  (* The body travels with the request in a real platform; the
     simulator's stand-in fetches it from the caller's table. *)
  let caller = Runtime.proc rt src in
  let behavior =
    match Hashtbl.find_opt caller.Process.behaviors req_id with
    | Some b ->
        Hashtbl.remove caller.Process.behaviors req_id;
        b
    | None -> fun _p ~target:_ ~args:_ -> []
  in
  if not (Heap.mem at.Process.heap target) then begin
    (* The target was collected before the request arrived: an
       application-level dangling call.  Reply empty so the caller
       releases its pins. *)
    Stats.incr rt.Runtime.stats "rmi.dangling";
    Runtime.send rt ~src:at.Process.id ~dst:src (Msg.Rmi_reply { req_id; target; results = [] })
  end
  else begin
    Stats.incr rt.Runtime.stats "rmi.served";
    let dgc = rt.Runtime.config.dgc_enabled in
    (* Adopt the piggy-backed counter on the scion side of the
       traversed reference; heal the scion first if an export notice
       was lost. *)
    if dgc then begin
      let key = Ref_key.make ~src ~target in
      ignore (Scion_table.ensure at.Process.scions ~now:(Runtime.now rt) key : Scion_table.entry);
      Scion_table.observe_invocation at.Process.scions ~now:(Runtime.now rt) key ~stub_ic;
      List.iter (fun a -> Reflist.import_ref rt ~at a) args
    end;
    let results = behavior at ~target ~args in
    if dgc then List.iter (fun r -> Reflist.export_ref rt ~from_:at ~to_:src r) results;
    (* Marshal the outgoing reply. *)
    marshal_work rt ~src:at.Process.id ~dst:src (Msg.Rmi_reply { req_id; target; results });
    Runtime.send rt ~src:at.Process.id ~dst:src (Msg.Rmi_reply { req_id; target; results })
  end

let handle_reply rt ~(at : Process.t) ~req_id ~target ~results =
  Stats.incr rt.Runtime.stats "rmi.replies";
  marshal_work rt ~src:at.Process.id ~dst:at.Process.id (Msg.Rmi_reply { req_id; target; results });
  let pending = release_pins at req_id in
  if rt.Runtime.config.dgc_enabled then List.iter (fun r -> Reflist.import_ref rt ~at r) results;
  match pending with
  | Some { Process.on_reply = Some k; _ } -> k results
  | Some { Process.on_reply = None; _ } | None -> ()
