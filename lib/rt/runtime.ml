open Adgc_algebra

type config = {
  dgc_enabled : bool;
  rmi_marshal : bool;
  lgc_period : int;
  new_set_period : int;
  scion_grace : int;
  holder_silence_limit : int option;
  dgc_window : int;
}

let default_config () =
  {
    dgc_enabled = true;
    rmi_marshal = false;
    lgc_period = 1_000;
    new_set_period = 1_500;
    scion_grace = 10_000;
    holder_silence_limit = None;
    dgc_window = 10;
  }

type t = {
  sched : Scheduler.t;
  net : Network.t;
  procs : Process.t array;
  rng : Adgc_util.Rng.t;
  stats : Adgc_util.Stats.t;
  trace : Adgc_util.Trace.t;
  obs : Adgc_obs.Span.t;
  lineage : Adgc_obs.Lineage.t;
  mutable run_span : int;
  config : config;
  mutable on_reclaim : (Proc_id.t -> Oid.t -> unit) option;
  mutable on_pre_sweep : (Proc_id.t -> Oid.t list -> unit) option;
}

type behavior = t -> Process.t -> target:Oid.t -> args:Oid.t list -> Oid.t list

let create ~sched ~net ~procs ~rng ~stats ~trace ~obs ~lineage ~config =
  {
    sched;
    net;
    procs;
    rng;
    stats;
    trace;
    obs;
    lineage;
    run_span = Adgc_obs.Span.none;
    config;
    on_reclaim = None;
    on_pre_sweep = None;
  }

let proc t id = t.procs.(Proc_id.to_int id)

let now t = Scheduler.now t.sched

let log t ~topic fmt = Adgc_util.Trace.addf t.trace ~time:(now t) ~topic fmt

let send t ~src ~dst payload =
  (* Crash-stop: the dead neither speak nor listen.  Receive-side
     filtering happens again at dispatch so a crash mid-flight also
     silences delivery. *)
  let sender = proc t src in
  if sender.Process.alive && (proc t dst).Process.alive then begin
    let seq = Process.next_link_seq sender ~dst in
    Network.send t.net (Msg.make ~seq ~src ~dst ~sent_at:(now t) payload)
  end
  else Adgc_util.Stats.incr t.stats "net.msg.dead_endpoint"

(* ------------------------------------------------------------------ *)
(* DGC traffic coalescing.  Control messages (stub sets, probes, CDMs,
   proven-cycle deletions) tolerate a small extra delay, so instead of
   hitting the wire one by one they sit in the sender's per-destination
   queue for [dgc_window] ticks and leave as one [Msg.Batch]
   envelope — one latency charge, one header, one network event.
   Liveness is unaffected: the window only postpones, never
   suppresses, and every protocol above already tolerates delay. *)

(* Close a queue one window from now — or right here when the window
   is 0, with no scheduler involvement, which the model checker's
   frozen clock requires. *)
let after_window t flush =
  if t.config.dgc_window <= 0 then flush ()
  else Scheduler.schedule_after t.sched ~delay:t.config.dgc_window flush

let flush_batch t ~src ~dst =
  let sender = proc t src in
  let key = Proc_id.to_int dst in
  match Hashtbl.find_opt sender.Process.pending_batches key with
  | None -> ()
  | Some q ->
      Hashtbl.remove sender.Process.pending_batches key;
      (match List.rev q.Process.queued with
      | [] -> ()
      | [ payload ] -> send t ~src ~dst payload
      | payloads ->
          Adgc_util.Stats.incr t.stats "net.msg.batch_flushes";
          Adgc_util.Stats.add t.stats "net.msg.batched" (List.length payloads);
          if Adgc_obs.Span.enabled t.obs then begin
            let span =
              Adgc_obs.Span.begin_span t.obs ~time:q.Process.opened_at ?parent:None
                ~proc:(Proc_id.to_int src) ~kind:Adgc_obs.Span.Batch_flush
                (Printf.sprintf "batch %s->%s" (Proc_id.to_string src) (Proc_id.to_string dst))
            in
            Adgc_obs.Span.end_span t.obs ~time:(now t)
              ~args:[ ("payloads", string_of_int (List.length payloads)) ]
              span
          end;
          send t ~src ~dst (Msg.Batch payloads))

let send_dgc t ~src ~dst payload =
  if Msg.payload_refs payload <> [] then
    invalid_arg ("Runtime.send_dgc: a " ^ Msg.kind payload ^ " payload carries references");
  let sender = proc t src in
  let key = Proc_id.to_int dst in
  match Hashtbl.find_opt sender.Process.pending_batches key with
  | Some q -> q.Process.queued <- payload :: q.Process.queued
  | None ->
      Hashtbl.add sender.Process.pending_batches key
        { Process.queued = [ payload ]; opened_at = now t };
      after_window t (fun () -> flush_batch t ~src ~dst)
