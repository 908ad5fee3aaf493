open Adgc_algebra
module Seqs = Set.Make (Int)

type behavior = t -> target:Oid.t -> args:Oid.t list -> Oid.t list

and pending_call = {
  call_target : Oid.t;
  pinned : Oid.t list;
  on_reply : (Oid.t list -> unit) option;
}

and pending_notice = { notice_target : Oid.t; new_holder : Proc_id.t }

and batch_queue = { mutable queued : Msg.payload list; opened_at : int }

and inbound = { mutable floor : int; mutable above : Seqs.t }

and t = {
  id : Proc_id.t;
  heap : Heap.t;
  stubs : Stub_table.t;
  scions : Scion_table.t;
  rng : Adgc_util.Rng.t;
  mutable alive : bool;
  out_seqs : (int, int ref) Hashtbl.t;
  inbound : (int, inbound) Hashtbl.t;
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
    out_seqs = Hashtbl.create 8;
    inbound = Hashtbl.create 8;
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

let next_link_seq t ~dst =
  match Hashtbl.find_opt t.out_seqs (Proc_id.to_int dst) with
  | Some r ->
      let s = !r in
      r := s + 1;
      s
  | None ->
      Hashtbl.add t.out_seqs (Proc_id.to_int dst) (ref 1);
      0

let fresh_req_id t =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  id

let fresh_notice_id t =
  let id = t.next_notice_id in
  t.next_notice_id <- id + 1;
  id

(* Every seq below [floor] was delivered (or given up by
   [prune_delivered]); [above] holds the delivered seqs past it.
   Moving the floor over the delivered seqs it meets keeps [above]
   empty on a link that delivers in order. *)
let rec collapse l =
  if Seqs.mem l.floor l.above then begin
    l.above <- Seqs.remove l.floor l.above;
    l.floor <- l.floor + 1;
    collapse l
  end

let note_delivery t ~src ~seq =
  if seq < 0 then true
  else
    let s = Proc_id.to_int src in
    let l =
      match Hashtbl.find_opt t.inbound s with
      | Some l -> l
      | None ->
          let l = { floor = 0; above = Seqs.empty } in
          Hashtbl.add t.inbound s l;
          l
    in
    if seq < l.floor || Seqs.mem seq l.above then false
    else begin
      if seq = l.floor then begin
        l.floor <- seq + 1;
        collapse l
      end
      else l.above <- Seqs.add seq l.above;
      true
    end

let delivered_count t = Hashtbl.fold (fun _ l n -> n + Seqs.cardinal l.above) t.inbound 0

(* A gap below a delivered seq is an envelope that was lost, is still
   in flight, or was refused while this process was down.  At a
   quiescence point (restart) a gap more than [prune_slack] seqs behind
   the link's highest delivery is given up: the floor moves to
   [hi - prune_slack] and [note_delivery] refuses anything below it,
   which is sound because a never-delivered envelope that old is
   indistinguishable from a network loss — and every protocol already
   tolerates loss. *)
let prune_slack = 64

let prune_delivered t =
  Hashtbl.fold
    (fun _ l removed ->
      match Seqs.max_elt_opt l.above with
      | Some hi when hi - prune_slack > l.floor ->
          let floor = hi - prune_slack in
          let below, at, rest = Seqs.split floor l.above in
          l.above <- rest;
          l.floor <- (if at then floor + 1 else floor);
          collapse l;
          removed + Seqs.cardinal below
      | Some _ | None -> removed)
    t.inbound 0

let next_out_seqno t ~dst =
  let key = Proc_id.to_int dst in
  let next = match Hashtbl.find_opt t.out_seqnos key with Some s -> s + 1 | None -> 0 in
  Hashtbl.replace t.out_seqnos key next;
  next
