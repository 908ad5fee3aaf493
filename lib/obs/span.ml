type kind =
  | Run
  | Detection
  | Cdm_hop
  | Snapshot
  | Lgc_sweep
  | Batch_flush
  | Custom of string

let kind_name = function
  | Run -> "run"
  | Detection -> "detection"
  | Cdm_hop -> "cdm_hop"
  | Snapshot -> "snapshot"
  | Lgc_sweep -> "lgc_sweep"
  | Batch_flush -> "batch_flush"
  | Custom s -> s

type span = {
  id : int;
  parent : int option;
  kind : kind;
  name : string;
  proc : int;
  start_time : int;
  mutable end_time : int option;
  mutable args : (string * string) list;
}

let capacity = 65536

type t = {
  mutable buf : span option array;  (* allocated by the first [push] *)
  mutable head : int; (* next write slot *)
  mutable count : int;
  mutable enabled : bool;
  mutable next_id : int;
  (* Spans still open, by id.  Entries share the record stored in the
     ring, so ending a span updates the ring in place; eviction from
     the ring leaves the open entry valid (it just won't be
     exported). *)
  open_spans : (int, span) Hashtbl.t;
}

let create () =
  {
    buf = [||];
    head = 0;
    count = 0;
    enabled = false;
    next_id = 0;
    open_spans = Hashtbl.create 64;
  }

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let push t span =
  if Array.length t.buf = 0 then t.buf <- Array.make capacity None;
  if t.count < capacity then t.count <- t.count + 1;
  t.buf.(t.head) <- Some span;
  t.head <- (t.head + 1) mod capacity

(* -1 is the "disabled" span id: every later operation on it is a
   no-op, so call sites don't need their own guard. *)
let none = -1

let begin_span t ~time ?parent ?(proc = -1) ~kind name =
  if not t.enabled then none
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let span =
      { id; parent; kind; name; proc; start_time = time; end_time = None; args = [] }
    in
    Hashtbl.replace t.open_spans id span;
    push t span;
    id
  end

let end_span t ~time ?(args = []) id =
  if t.enabled && id >= 0 then
    match Hashtbl.find_opt t.open_spans id with
    | None -> ()
    | Some span ->
        Hashtbl.remove t.open_spans id;
        span.end_time <- Some time;
        if args <> [] then span.args <- span.args @ args

let event t ~time ?parent ?proc ?(args = []) ~kind name =
  if t.enabled then begin
    let id = begin_span t ~time ?parent ?proc ~kind name in
    end_span t ~time ~args id;
    id
  end
  else none

let spans t =
  let start = (t.head - t.count + (capacity * 2)) mod capacity in
  let rec collect i n acc =
    if n = 0 then List.rev acc
    else
      let acc = match t.buf.(i) with None -> acc | Some s -> s :: acc in
      collect ((i + 1) mod capacity) (n - 1) acc
  in
  collect start t.count []
