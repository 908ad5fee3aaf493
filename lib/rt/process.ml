open Adgc_algebra

type behavior = t -> target:Oid.t -> args:Oid.t list -> Oid.t list

and pending_call = {
  call_target : Oid.t;
  pinned : Oid.t list;
  on_reply : (Oid.t list -> unit) option;
}

and pending_notice = { notice_target : Oid.t; new_holder : Proc_id.t }

and batch_queue = { mutable queued : Msg.payload list; opened_at : int }

and t = {
  id : Proc_id.t;
  heap : Heap.t;
  stubs : Stub_table.t;
  scions : Scion_table.t;
  rng : Adgc_util.Rng.t;
  mutable alive : bool;
  mutable next_msg_seq : int;
  delivered : (int, unit) Hashtbl.t;
  delivered_high : (int, int) Hashtbl.t;
  delivered_floor : (int, int) Hashtbl.t;
  out_seqnos : (int, int) Hashtbl.t;
  mutable set_recipients : Proc_id.Set.t;
  (* Per-process protocol kernel state: every id this process mints
     and every table it consults when handling a delivery is its own.
     Nothing here is shared with any other process — a delivery or a
     duty is a transition on one process's state plus outbound
     messages. *)
  mutable next_req_id : int;
  mutable next_notice_id : int;
  behaviors : (int, behavior) Hashtbl.t;
  pending_calls : (int, pending_call) Hashtbl.t;
  pending_notices : (int, pending_notice) Hashtbl.t;
  pending_batches : (int, batch_queue) Hashtbl.t;
  mutable on_cdm : (Cdm.t -> unit) option;
  mutable on_cdm_delete : (Detection_id.t -> Ref_key.t list -> unit) option;
  mutable on_ext : (src:Proc_id.t -> string -> unit) option;
}

let create ~id ~rng =
  {
    id;
    heap = Heap.create ~owner:id;
    stubs = Stub_table.create ~owner:id;
    scions = Scion_table.create ~owner:id;
    rng;
    alive = true;
    next_msg_seq = 0;
    delivered = Hashtbl.create 64;
    delivered_high = Hashtbl.create 8;
    delivered_floor = Hashtbl.create 8;
    out_seqnos = Hashtbl.create 8;
    set_recipients = Proc_id.Set.empty;
    next_req_id = 0;
    next_notice_id = 0;
    behaviors = Hashtbl.create 8;
    pending_calls = Hashtbl.create 8;
    pending_notices = Hashtbl.create 8;
    pending_batches = Hashtbl.create 8;
    on_cdm = None;
    on_cdm_delete = None;
    on_ext = None;
  }

let next_msg_seq t =
  let s = t.next_msg_seq in
  t.next_msg_seq <- s + 1;
  s

let fresh_req_id t =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  id

let fresh_notice_id t =
  let id = t.next_notice_id in
  t.next_notice_id <- id + 1;
  id

(* (sender, seq) packed into one int; seqs stay far below 2^44. *)
let delivery_key ~src ~seq = (Proc_id.to_int src lsl 44) lor seq

let note_delivery t ~src ~seq =
  if seq < 0 then true
  else begin
    let s = Proc_id.to_int src in
    let below_floor =
      match Hashtbl.find_opt t.delivered_floor s with Some f -> seq < f | None -> false
    in
    if below_floor then false
    else begin
      let key = delivery_key ~src ~seq in
      if Hashtbl.mem t.delivered key then false
      else begin
        Hashtbl.add t.delivered key ();
        (match Hashtbl.find_opt t.delivered_high s with
        | Some hi when hi >= seq -> ()
        | Some _ | None -> Hashtbl.replace t.delivered_high s seq);
        true
      end
    end
  end

let delivered_count t = Hashtbl.length t.delivered

(* The duplicate-suppression table only needs individual entries for
   envelopes a stale copy of which could still arrive.  At a
   quiescence point (restart) everything more than [slack] sequence
   numbers behind a sender's high-water mark is summarised by a
   per-sender floor instead: [note_delivery] refuses any sub-floor
   sequence outright, which is sound because a never-delivered
   envelope that old is indistinguishable from a network loss — and
   every protocol already tolerates loss. *)
let prune_delivered ?(slack = 64) t =
  let removed = ref 0 in
  Hashtbl.iter
    (fun src hi ->
      let floor = hi - slack in
      if floor > 0 then
        match Hashtbl.find_opt t.delivered_floor src with
        | Some f when f >= floor -> ()
        | Some _ | None -> Hashtbl.replace t.delivered_floor src floor)
    t.delivered_high;
  let stale =
    Hashtbl.fold
      (fun key () acc ->
        let src = key lsr 44 in
        let seq = key land ((1 lsl 44) - 1) in
        match Hashtbl.find_opt t.delivered_floor src with
        | Some floor when seq < floor -> key :: acc
        | Some _ | None -> acc)
      t.delivered []
  in
  List.iter
    (fun key ->
      Hashtbl.remove t.delivered key;
      incr removed)
    stale;
  !removed

let next_out_seqno t ~dst =
  let key = Proc_id.to_int dst in
  let next = match Hashtbl.find_opt t.out_seqnos key with Some s -> s + 1 | None -> 0 in
  Hashtbl.replace t.out_seqnos key next;
  next

let pp ppf t =
  Format.fprintf ppf "%a[heap=%d stubs=%d scions=%d]" Proc_id.pp t.id (Heap.size t.heap)
    (Stub_table.size t.stubs) (Scion_table.size t.scions)
