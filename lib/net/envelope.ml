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

(* Constructor order, which [headers] and {!read} follow. *)
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

(* Each constructor's kind and its field count, in constructor
   order: the case header {!emit} writes. *)
let headers =
  [| ("hello", 3); ("start", 0); ("heartbeat", 1); ("net_msg", 1); ("status_req", 0); ("status", 7);
     ("state_req", 0); ("state", 1); ("drop_peer", 1); ("shutdown", 0); ("bye", 0) |]

let kind t = fst headers.(index t)

let arities = Array.map snd headers

let emit s t =
  let i = index t in
  N.variant s i arities.(i);
  match t with
  | Hello { rank; procs; seed } ->
      N.int s rank;
      N.int s procs;
      N.int s seed
  | Heartbeat { tick } -> N.int s tick
  | Net_msg m -> Msg.emit s m
  | Status st ->
      N.int s st.st_rank;
      N.int s st.st_tick;
      N.bool s st.st_ready;
      N.list s (List.length st.st_reclaimed);
      List.iter (Oid.emit s) st.st_reclaimed;
      N.int s st.st_wire_sent;
      N.int s st.st_wire_received;
      N.int s st.st_dup_ignored
  | State ns -> Gather.emit s ns
  | Drop_peer rank -> N.int s rank
  | Start | Status_req | State_req | Shutdown | Bye -> ()

let read r =
  match R.variant r arities with
  | 0 ->
      let rank = R.int r in
      let procs = R.int r in
      let seed = R.int r in
      Hello { rank; procs; seed }
  | 1 -> Start
  | 2 -> Heartbeat { tick = R.int r }
  | 3 -> Net_msg (Msg.read r)
  | 4 -> Status_req
  | 5 ->
      let st_rank = R.int r in
      let st_tick = R.int r in
      let st_ready = R.bool r in
      let st_reclaimed = List.init (R.list r) (fun _ -> Oid.read r) in
      let st_wire_sent = R.int r in
      let st_wire_received = R.int r in
      let st_dup_ignored = R.int r in
      Status
        { st_rank; st_tick; st_ready; st_reclaimed; st_wire_sent; st_wire_received; st_dup_ignored }
  | 6 -> State_req
  | 7 -> State (Gather.read r)
  | 8 -> Drop_peer (R.int r)
  | 9 -> Shutdown
  | _ -> Bye
