open Adgc_algebra
module Stats = Adgc_util.Stats

let import_ref rt ~at oid =
  if not (Proc_id.equal (Oid.owner oid) at.Process.id) then begin
    let existed = Stub_table.mem at.Process.stubs oid in
    ignore (Stub_table.ensure at.Process.stubs ~now:(Runtime.now rt) oid);
    if not existed then Stats.incr rt.Runtime.stats "dgc.stubs.created"
  end

(* Delay between retransmissions of an unacknowledged [Export_notice]. *)
let notice_retry_delay = 100

let rec retry_notice rt ~(exporter : Process.t) ~notice_id =
  match Hashtbl.find_opt exporter.Process.pending_notices notice_id with
  | None -> ()
  | Some pending ->
      Stats.incr rt.Runtime.stats "reflist.notice_retries";
      Runtime.send rt ~src:exporter.Process.id
        ~dst:(Oid.owner pending.Process.notice_target)
        (Msg.Export_notice
           {
             notice_id;
             target = pending.Process.notice_target;
             new_holder = pending.Process.new_holder;
           });
      Scheduler.schedule_after rt.Runtime.sched ~delay:notice_retry_delay
        (fun () -> retry_notice rt ~exporter ~notice_id)

let export_ref rt ~(from_ : Process.t) ~to_ oid =
  let owner = Oid.owner oid in
  if Proc_id.equal owner to_ then ()
  else if Proc_id.equal owner from_.Process.id then begin
    (* Owner-side export: create the (unconfirmed) scion synchronously. *)
    let key = Ref_key.make ~src:to_ ~target:oid in
    if not (Scion_table.mem from_.Process.scions key) then begin
      ignore (Scion_table.ensure from_.Process.scions ~now:(Runtime.now rt) key : Scion_table.entry);
      Stats.incr rt.Runtime.stats "dgc.scions.created"
    end
  end
  else begin
    (* Third-party export: pin our stub, notify the owner, retry until
       acknowledged. *)
    if not (Stub_table.mem from_.Process.stubs oid) then
      invalid_arg
        (Format.asprintf "Reflist.export_ref: %a exports %a without holding a stub" Proc_id.pp
           from_.Process.id Oid.pp oid);
    Stub_table.pin from_.Process.stubs ~now:(Runtime.now rt) oid;
    (* Notice ids are minted per exporter; acks come back to the
       exporter, which consults only its own table. *)
    let notice_id = Process.fresh_notice_id from_ in
    Hashtbl.replace from_.Process.pending_notices notice_id
      { Process.notice_target = oid; new_holder = to_ };
    Stats.incr rt.Runtime.stats "reflist.notices_sent";
    Runtime.send rt ~src:from_.Process.id ~dst:owner
      (Msg.Export_notice { notice_id; target = oid; new_holder = to_ });
    Scheduler.schedule_after rt.Runtime.sched ~delay:notice_retry_delay
      (fun () -> retry_notice rt ~exporter:from_ ~notice_id)
  end

let handle_export_notice rt ~(at : Process.t) ~src ~notice_id ~target ~new_holder =
  if Heap.mem at.Process.heap target then begin
    let key = Ref_key.make ~src:new_holder ~target in
    (* Gauntlet mutant: acknowledge the notice without recording the
       scion — the exporter unpins while the new holder's reference is
       unprotected at the owner. *)
    if
      (not (Scion_table.mem at.Process.scions key))
      && not (Adgc_util.Mc_mutate.enabled "ack_before_delivery")
    then begin
      ignore (Scion_table.ensure at.Process.scions ~now:(Runtime.now rt) key : Scion_table.entry);
      Stats.incr rt.Runtime.stats "dgc.scions.created"
    end
  end
  else
    (* The exporter violated the pinning discipline, or the notice
       outlived the object; acknowledge anyway so it stops retrying. *)
    Stats.incr rt.Runtime.stats "reflist.notice_dead_target";
  Runtime.send rt ~src:at.Process.id ~dst:src
    (Msg.Export_ack { notice_id; target; new_holder })

let handle_export_ack _rt ~(at : Process.t) ~notice_id =
  match Hashtbl.find_opt at.Process.pending_notices notice_id with
  | None -> () (* duplicate ack *)
  | Some pending ->
      Hashtbl.remove at.Process.pending_notices notice_id;
      Stub_table.unpin at.Process.stubs pending.Process.notice_target

let send_set_to rt (p : Process.t) ~dst (serials, ics) =
  let seqno = Process.next_out_seqno p ~dst in
  Stats.incr rt.Runtime.stats "reflist.sets_sent";
  Runtime.send_dgc rt ~src:p.Process.id ~dst (Msg.New_set_stubs { seqno; serials; ics })

let would_advertise (p : Process.t) =
  Stub_table.advertises p.Process.stubs || not (Proc_id.Set.is_empty p.Process.set_recipients)

let retraction = ([||], [||])

let send_new_sets rt (p : Process.t) =
  (* Owners in ascending rank: each one listed now gets its slice, and
     each of last round's recipients that nothing lists now gets an
     empty set, in turn. *)
  let owed = ref p.Process.set_recipients and current = ref Proc_id.Set.empty in
  let rec retract_below owner =
    match Proc_id.Set.min_elt_opt !owed with
    | Some r when Proc_id.compare r owner < 0 ->
        owed := Proc_id.Set.remove r !owed;
        send_set_to rt p ~dst:r retraction;
        retract_below owner
    | Some _ | None -> ()
  in
  Stub_table.iter_advertised p.Process.stubs (fun owner slice ->
      retract_below owner;
      owed := Proc_id.Set.remove owner !owed;
      current := Proc_id.Set.add owner !current;
      send_set_to rt p ~dst:owner slice);
  Proc_id.Set.iter (fun r -> send_set_to rt p ~dst:r retraction) !owed;
  p.Process.set_recipients <- !current;
  Stub_table.clear_fresh p.Process.stubs

let probe_idle_scions rt (p : Process.t) ~threshold =
  List.iter
    (fun holder ->
      Stats.incr rt.Runtime.stats "reflist.probes_sent";
      Runtime.send_dgc rt ~src:p.Process.id ~dst:holder Msg.Scion_probe)
    (Scion_table.idle_sources p.Process.scions ~now:(Runtime.now rt) ~threshold)

let reap_dead_holders rt (p : Process.t) =
  match rt.Runtime.config.holder_silence_limit with
  | None -> ()
  | Some threshold ->
      List.iter
        (fun holder ->
          let deleted = Scion_table.delete_from p.Process.scions holder in
          if deleted <> [] then begin
            Stats.add rt.Runtime.stats "reflist.scions_reaped" (List.length deleted);
            Runtime.log rt ~topic:"reflist" "%a declared %a dead, %d scions reaped" Proc_id.pp
              p.Process.id Proc_id.pp holder (List.length deleted)
          end)
        (Scion_table.idle_sources p.Process.scions ~now:(Runtime.now rt) ~threshold)

let handle_probe rt ~(at : Process.t) ~src =
  (* Answer with a fresh stub set for the prober, listing whatever we
     still reference there (possibly nothing). *)
  send_set_to rt at ~dst:src (Stub_table.advertised_to at.Process.stubs src)

let handle_new_set rt ~(at : Process.t) ~src ~seqno ~serials ~ics =
  let result =
    Scion_table.apply_new_set ~grace:rt.Runtime.config.scion_grace at.Process.scions
      ~now:(Runtime.now rt) ~src ~seqno ~serials ~ics
  in
  if result.Scion_table.stale then Stats.incr rt.Runtime.stats "reflist.sets_stale"
  else begin
    List.iter
      (fun key ->
        Stats.incr rt.Runtime.stats "dgc.scions.deleted";
        Runtime.log rt ~topic:"reflist" "scion deleted %a at %a" Ref_key.pp key Proc_id.pp
          at.Process.id)
      result.Scion_table.deleted;
    (* Healing: the holder advertises an object we have no scion for
       (export notice lost).  Recreate the scion if the object is
       still with us; it arrives already confirmed since the holder
       just listed it. *)
    List.iter
      (fun (target, stub_ic) ->
        if Heap.mem at.Process.heap target then begin
          Stats.incr rt.Runtime.stats "reflist.scions_healed";
          let key = Ref_key.make ~src ~target in
          let entry = Scion_table.ensure at.Process.scions ~now:(Runtime.now rt) key in
          Scion_table.confirm entry;
          Scion_table.sync_ic entry stub_ic
        end)
      result.Scion_table.unknown
  end
