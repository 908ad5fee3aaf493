module Heap_queue = Adgc_util.Heap_queue

(* [daemons] counts the queued events that {!drain} does not wait
   for: each is wrapped to count itself out when it runs. *)
type t = { mutable now : int; queue : (int, unit -> unit) Heap_queue.t; mutable daemons : int }

let create () = { now = 0; queue = Heap_queue.create ~compare:Int.compare; daemons = 0 }

let now t = t.now

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Scheduler.schedule_at: time is in the past";
  Heap_queue.push t.queue time f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Scheduler.schedule_after: negative delay";
  Heap_queue.push t.queue (t.now + delay) f

let run_next t =
  match Heap_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
      t.now <- time;
      f ();
      true

let run_until t ~time =
  let continue = ref true in
  while !continue do
    match Heap_queue.peek t.queue with
    | Some (event_time, _) when event_time <= time -> ignore (run_next t)
    | Some _ | None -> continue := false
  done;
  if t.now < time then t.now <- time

let run_for t ~delay = run_until t ~time:(t.now + delay)

let drain ?(limit = 10_000_000) t =
  let executed = ref 0 in
  while !executed < limit && Heap_queue.length t.queue > t.daemons && run_next t do
    incr executed
  done;
  !executed

type recurring = { mutable active : bool }

let recurring ~schedule ~phase ~period f =
  let handle = { active = true } in
  let rec fire () =
    if handle.active then begin
      f ();
      schedule period fire
    end
  in
  schedule phase fire;
  handle

let every t ?phase ~period f =
  if period <= 0 then invalid_arg "Scheduler.every: period must be positive";
  let phase = match phase with Some p -> p | None -> period in
  recurring ~schedule:(fun delay g -> schedule_after t ~delay g) ~phase ~period f

let daemon t ~period f =
  if period <= 0 then invalid_arg "Scheduler.daemon: period must be positive";
  let schedule delay g =
    t.daemons <- t.daemons + 1;
    Heap_queue.push t.queue (t.now + delay) (fun () ->
        t.daemons <- t.daemons - 1;
        g ())
  in
  recurring ~schedule ~phase:period ~period f

let cancel handle = handle.active <- false

(* A lane carries one periodic duty for [n] members through a single
   scheduler event: member fire times live in a lane-local heap and
   only the earliest is armed in the global queue.  At 1k+ processes
   this keeps the global queue at O(duty kinds) instead of
   O(processes x duty kinds) entries, while each member still fires at
   exactly [now + phase_of i + k * period] — the same instants the
   per-member [every] handles produced. *)
type lane = {
  mutable lane_active : bool;
  members : (int, int) Heap_queue.t; (* next fire time -> member *)
  mutable armed_at : int; (* time of the armed event; -1 = none *)
}

let lane t ~n ~phase_of ~period f =
  if period <= 0 then invalid_arg "Scheduler.lane: period must be positive";
  let l = { lane_active = true; members = Heap_queue.create ~compare:Int.compare; armed_at = -1 } in
  for i = 0 to n - 1 do
    let phase = phase_of i in
    if phase < 0 then invalid_arg "Scheduler.lane: negative phase";
    Heap_queue.push l.members (t.now + phase) i
  done;
  let rec arm () =
    match Heap_queue.peek l.members with
    | None -> l.armed_at <- -1
    | Some (time, _) ->
        l.armed_at <- time;
        schedule_at t ~time (fun () ->
            if l.lane_active && l.armed_at = time then begin
              (* Run every member due now (same-time members in push,
                 i.e. FIFO, order), rescheduling each one period out. *)
              let continue = ref true in
              while !continue do
                match Heap_queue.peek l.members with
                | Some (due, _) when due <= t.now -> (
                    match Heap_queue.pop l.members with
                    | Some (_, i) ->
                        Heap_queue.push l.members (due + period) i;
                        f i
                    | None -> continue := false)
                | Some _ | None -> continue := false
              done;
              arm ()
            end)
  in
  arm ();
  l

let cancel_lane l = l.lane_active <- false
