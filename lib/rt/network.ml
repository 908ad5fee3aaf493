open Adgc_algebra
module Rng = Adgc_util.Rng
module Stats = Adgc_util.Stats

type delivery_mode = Timed | Manual

type config = {
  mutable latency_min : int;
  mutable latency_max : int;
  mutable drop_prob : float;
  mutable account_bytes : bool;
  mutable delivery : delivery_mode;
}

let default_config () =
  {
    latency_min = 5;
    latency_max = 25;
    drop_prob = 0.0;
    account_bytes = false;
    delivery = Timed;
  }

type t = {
  sched : Scheduler.t;
  rng : Rng.t;
  stats : Stats.t;
  config : config;
  faults : Faults.plan;
  mutable deliver : (Msg.t -> unit) option;
  mutable transport : (Msg.t -> bool) option;
  in_flight : (int, Msg.t) Hashtbl.t;  (** keyed by injection id *)
  live_refs : int Oid.Tbl.t;
      (** multiset of the live references carried by in-flight envelopes *)
  mutable next_id : int;
  cut : (int * int, unit) Hashtbl.t;  (** partitioned links (scheduled and manual) *)
  burst : (int * int, bool ref) Hashtbl.t;  (** Gilbert–Elliott state per link; [true] = in a burst *)
}

let link_key a b = (Proc_id.to_int a, Proc_id.to_int b)

let block_link t a b = Hashtbl.replace t.cut (link_key a b) ()

let unblock_link t a b = Hashtbl.remove t.cut (link_key a b)

let create ?(faults = Faults.none) ~sched ~rng ~stats ~config () =
  let t =
    {
      sched;
      rng;
      stats;
      config;
      faults;
      deliver = None;
      transport = None;
      in_flight = Hashtbl.create 64;
      live_refs = Oid.Tbl.create 64;
      next_id = 0;
      cut = Hashtbl.create 4;
      burst = Hashtbl.create 4;
    }
  in
  List.iter
    (function
      | Faults.Partition { links; at; heal } ->
          let pid = Proc_id.of_int in
          Scheduler.schedule_at sched ~time:at (fun () ->
              List.iter
                (fun (a, b) ->
                  block_link t (pid a) (pid b);
                  block_link t (pid b) (pid a))
                links;
              Stats.incr stats "net.partitions");
          Option.iter
            (fun time ->
              Scheduler.schedule_at sched ~time (fun () ->
                  List.iter
                    (fun (a, b) ->
                      unblock_link t (pid a) (pid b);
                      unblock_link t (pid b) (pid a))
                    links;
                  Stats.incr stats "net.heals"))
            heal
      | Faults.Crash _ | Faults.Restart _ -> (* the cluster schedules these *) ())
    faults.Faults.events;
  t

let config t = t.config

let set_deliver t f = t.deliver <- Some f

let set_transport t f = t.transport <- Some f

(* Per-kind stat keys, built once rather than per envelope. *)
let kind_keys prefix = Array.map (fun k -> prefix ^ k) Msg.kinds

let sent_keys = kind_keys "net.msg.sent."
let delivered_keys = kind_keys "net.msg.delivered."
let dropped_keys = kind_keys "net.msg.dropped."
let bytes_keys = kind_keys "net.bytes."

(* One size count per accounted message: the byte count feeds both the
   aggregate and the per-kind counter.  The count is the length of the
   message's compact encoding, computed without writing it.  Callers
   invoke this only for messages that actually travel — a message
   killed by a cut link or the loss model is never sized at all. *)
let account t (msg : Msg.t) =
  if t.config.account_bytes then begin
    let bytes = Adgc_serial.Net_codec.size Msg.emit msg in
    Stats.add t.stats "net.bytes" bytes;
    Stats.add t.stats bytes_keys.(Msg.kind_index msg.payload) bytes
  end

(* The link regime for this send: the plan's link while faults are
   active, the inherited default afterwards (fault quiescence). *)
let active_link t =
  match t.faults.Faults.link_faults_until with
  | Some until_ when Scheduler.now t.sched >= until_ -> Faults.default_link
  | Some _ | None -> t.faults.Faults.default_link

let draw_loss t (msg : Msg.t) (lk : Faults.link) =
  match lk.Faults.burst_loss with
  | None -> Rng.bernoulli t.rng t.config.drop_prob
  | Some { Faults.p_enter; p_exit; loss_good; loss_burst } ->
      let key = link_key msg.Msg.src msg.Msg.dst in
      let state =
        match Hashtbl.find_opt t.burst key with
        | Some r -> r
        | None ->
            let r = ref false in
            Hashtbl.add t.burst key r;
            r
      in
      (if !state then begin
         if Rng.bernoulli t.rng p_exit then state := false
       end
       else if Rng.bernoulli t.rng p_enter then begin
         state := true;
         Stats.incr t.stats "net.bursts"
       end);
      let lost = Rng.bernoulli t.rng (if !state then loss_burst else loss_good) in
      if lost && !state then Stats.incr t.stats "net.msg.dropped.burst";
      lost

let draw_latency t (lk : Faults.link) =
  let cfg = t.config in
  let base =
    if cfg.latency_max <= cfg.latency_min then cfg.latency_min
    else Rng.int_in t.rng cfg.latency_min cfg.latency_max
  in
  if lk.Faults.reorder_prob > 0.0 && Rng.bernoulli t.rng lk.Faults.reorder_prob then begin
    Stats.incr t.stats "net.msg.reordered";
    base + Rng.int_in t.rng 1 (Int.max 1 lk.Faults.reorder_skew)
  end
  else base

(* O(1) shadow bookkeeping for the registry.  The [in_flight] table
   stays the ground truth, but neither the oracle's reachability seeds
   nor any per-tick stat may scan it: alongside it we keep a multiset
   of the live references the parked and travelling envelopes carry,
   maintained at the four points where an envelope enters or leaves
   the registry (timed injection, timed delivery, manual park, manual
   take). *)
let register t (msg : Msg.t) =
  List.iter
    (fun o ->
      let n = match Oid.Tbl.find_opt t.live_refs o with Some n -> n | None -> 0 in
      Oid.Tbl.replace t.live_refs o (n + 1))
    (Msg.live_refs msg.Msg.payload)

let unregister t (msg : Msg.t) =
  List.iter
    (fun o ->
      match Oid.Tbl.find_opt t.live_refs o with
      | Some 1 -> Oid.Tbl.remove t.live_refs o
      | Some n -> Oid.Tbl.replace t.live_refs o (n - 1)
      | None -> assert false)
    (Msg.live_refs msg.Msg.payload)

(* Put one copy of the message on the wire.  Each copy gets its own
   injection id and latency draw, so a duplicate can overtake the
   original. *)
let inject t deliver (msg : Msg.t) ~latency =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.in_flight id msg;
  register t msg;
  Scheduler.schedule_after t.sched ~delay:latency (fun () ->
      Hashtbl.remove t.in_flight id;
      unregister t msg;
      Stats.incr t.stats "net.msg.delivered";
      Stats.incr t.stats delivered_keys.(Msg.kind_index msg.payload);
      deliver msg)

let send t (msg : Msg.t) =
  let deliver =
    match t.deliver with
    | Some f -> f
    | None -> invalid_arg "Network.send: no dispatch function installed"
  in
  Stats.incr t.stats "net.msg.sent";
  Stats.incr t.stats sent_keys.(Msg.kind_index msg.payload);
  let consumed =
    match t.transport with
    | Some f ->
        (* External transport first: a socket driver claims envelopes
           bound for processes living in other OS processes.  A claimed
           envelope leaves the simulated network entirely — the
           transport does its own delivery accounting on the far end. *)
        let claimed = f msg in
        if claimed then account t msg;
        claimed
    | None -> false
  in
  if consumed then ()
  else
  let drop reason =
    Stats.incr t.stats "net.msg.dropped";
    Stats.incr t.stats dropped_keys.(Msg.kind_index msg.payload);
    match reason with Some r -> Stats.incr t.stats r | None -> ()
  in
  if Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut (link_key msg.src msg.dst) then
    drop (Some "net.msg.dropped.partition")
  else
    match t.config.delivery with
    | Manual ->
        (* Explored delivery: park the envelope; an external scheduler
           (the model checker) decides its fate through [deliver_one]
           or [drop_one].  No RNG is consumed, so a manual run is a
           pure function of the choice sequence. *)
        account t msg;
        let id = t.next_id in
        t.next_id <- id + 1;
        Hashtbl.replace t.in_flight id msg;
        register t msg
    | Timed ->
        let lk = active_link t in
        if draw_loss t msg lk then drop None
        else begin
          account t msg;
          inject t deliver msg ~latency:(draw_latency t lk);
          if lk.Faults.duplicate_prob > 0.0 && Rng.bernoulli t.rng lk.Faults.duplicate_prob
          then begin
            Stats.incr t.stats "net.msg.duplicated";
            inject t deliver msg ~latency:(draw_latency t lk)
          end
        end

let in_flight t =
  Hashtbl.fold (fun id m acc -> (id, m) :: acc) t.in_flight []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let in_flight_count t = Hashtbl.length t.in_flight

let iter_in_flight_live_refs t f = Oid.Tbl.iter (fun o _ -> f o) t.live_refs

let pending t =
  Hashtbl.fold (fun id m acc -> (id, m) :: acc) t.in_flight []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let take_pending t id =
  match Hashtbl.find_opt t.in_flight id with
  | None -> invalid_arg "Network: unknown pending envelope id"
  | Some msg ->
      Hashtbl.remove t.in_flight id;
      unregister t msg;
      msg

let deliver_one t id =
  let msg = take_pending t id in
  let deliver =
    match t.deliver with
    | Some f -> f
    | None -> invalid_arg "Network.deliver_one: no dispatch function installed"
  in
  Stats.incr t.stats "net.msg.delivered";
  Stats.incr t.stats delivered_keys.(Msg.kind_index msg.Msg.payload);
  deliver msg

let drop_one t id =
  let msg = take_pending t id in
  Stats.incr t.stats "net.msg.dropped";
  Stats.incr t.stats dropped_keys.(Msg.kind_index msg.Msg.payload)
