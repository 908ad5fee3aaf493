module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read
module Msg = Adgc_rt.Msg
open Adgc_algebra

type status = {
  st_rank : int;
  st_tick : int;
  st_ready : bool;
  st_reclaimed : Oid.t list;
  st_wire_sent : int;
  st_wire_received : int;
  st_dup_ignored : int;
}

type t =
  | Hello of { rank : int; procs : int; seed : int }
  | Start
  | Heartbeat of { tick : int }
  | Net_msg of Msg.t
  | Status_req
  | Status of status
  | State_req
  | State of Gather.node_state
  | Drop_peer of int
  | Shutdown
  | Bye

(* Constructor order: the kind {!emit} writes and {!read} matches. *)
let index = function
  | Hello _ -> 0
  | Start -> 1
  | Heartbeat _ -> 2
  | Net_msg _ -> 3
  | Status_req -> 4
  | Status _ -> 5
  | State_req -> 6
  | State _ -> 7
  | Drop_peer _ -> 8
  | Shutdown -> 9
  | Bye -> 10

let kinds =
  [| "hello"; "start"; "heartbeat"; "net_msg"; "status_req"; "status"; "state_req"; "state";
     "drop_peer"; "shutdown"; "bye" |]

let kind t = kinds.(index t)

(* The wire form is one packed run, [kind; fields...].  A [Net_msg]'s
   message and a [State]'s gathered state follow the run as their own
   runs.  Only [Hello]'s [seed] can be negative, so it travels as its
   zigzag's two halves, the sign and then [seed] or [lnot seed]: a
   whole zigzag would need the 63rd bit a run item does not hold. *)

(* How many items a kind writes after its kind. *)
let fields = function
  | Hello _ -> 4
  | Heartbeat _ | Drop_peer _ -> 1
  | Status st -> 6 + (2 * List.length st.st_reclaimed)
  | Start | Net_msg _ | Status_req | State_req | State _ | Shutdown | Bye -> 0

let emit s t =
  N.packed s (1 + fields t);
  N.raw s (index t);
  match t with
  | Hello { rank; procs; seed } ->
      N.raw s rank;
      N.raw s procs;
      N.raw s (Bool.to_int (seed < 0));
      N.raw s (seed lxor (seed asr (Sys.int_size - 1)))
  | Heartbeat { tick } -> N.raw s tick
  | Net_msg m -> Msg.emit s m
  | Status st ->
      N.raw s st.st_rank;
      N.raw s st.st_tick;
      N.raw s (Bool.to_int st.st_ready);
      N.raw s st.st_wire_sent;
      N.raw s st.st_wire_received;
      N.raw s st.st_dup_ignored;
      List.iter (Oid.emit s) st.st_reclaimed
  | State ns -> Gather.emit s ns
  | Drop_peer rank -> N.raw s rank
  | Start | Status_req | State_req | Shutdown | Bye -> ()

let read_bool r = match R.raw r with 0 -> false | 1 -> true | _ -> R.fail r "bad bool"

let read r =
  let k = R.packed r - 1 in
  if k < 0 then R.fail r "empty envelope run";
  let kind = R.raw r in
  if kind >= Array.length kinds then R.fail r "unknown envelope kind";
  let exactly n = if k <> n then R.fail r ("ragged " ^ kinds.(kind) ^ " run") in
  let bare v =
    exactly 0;
    v
  in
  match kind with
  | 0 ->
      exactly 4;
      let rank = R.raw r in
      let procs = R.raw r in
      let negative = read_bool r in
      let half = R.raw r in
      Hello { rank; procs; seed = (if negative then lnot half else half) }
  | 1 -> bare Start
  | 2 ->
      exactly 1;
      Heartbeat { tick = R.raw r }
  | 3 ->
      exactly 0;
      Net_msg (Msg.read r)
  | 4 -> bare Status_req
  | 5 ->
      let n = R.entries r k ~fixed:6 ~width:2 "status" in
      let st_rank = R.raw r in
      let st_tick = R.raw r in
      let st_ready = read_bool r in
      let st_wire_sent = R.raw r in
      let st_wire_received = R.raw r in
      let st_dup_ignored = R.raw r in
      let st_reclaimed = List.init n (fun _ -> Oid.read r) in
      Status
        { st_rank; st_tick; st_ready; st_reclaimed; st_wire_sent; st_wire_received; st_dup_ignored }
  | 6 -> bare State_req
  | 7 ->
      exactly 0;
      State (Gather.read r)
  | 8 ->
      exactly 1;
      Drop_peer (R.raw r)
  | 9 -> bare Shutdown
  | _ -> bare Bye
