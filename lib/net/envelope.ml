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

(* Each constructor's kind, which also names its record, and its
   field count. *)
let headers =
  [| ("hello", 3); ("start", 0); ("heartbeat", 1); ("net_msg", 1); ("status_req", 0); ("status", 7);
     ("state_req", 0); ("state", 1); ("drop_peer", 1); ("shutdown", 0); ("bye", 0) |]

let kind t = fst headers.(index t)

let cases = Array.map (fun (kind, fields) -> (N.Name.v kind, fields)) headers

let n_rank = N.Name.v "rank"
let n_procs = N.Name.v "procs"
let n_seed = N.Name.v "seed"
let n_tick = N.Name.v "tick"
let n_msg = N.Name.v "msg"
let n_ready = N.Name.v "ready"
let n_reclaimed = N.Name.v "reclaimed"
let n_wire_sent = N.Name.v "wire_sent"
let n_wire_received = N.Name.v "wire_received"
let n_dup_ignored = N.Name.v "dup_ignored"
let n_node = N.Name.v "node"

let emit_int s name v =
  N.field s name;
  N.int s v

let emit s t =
  let name, fields = cases.(index t) in
  N.record s name fields;
  match t with
  | Hello { rank; procs; seed } ->
      emit_int s n_rank rank;
      emit_int s n_procs procs;
      emit_int s n_seed seed
  | Heartbeat { tick } -> emit_int s n_tick tick
  | Net_msg m ->
      N.field s n_msg;
      Msg.emit s m
  | Status st ->
      emit_int s n_rank st.st_rank;
      emit_int s n_tick st.st_tick;
      N.field s n_ready;
      N.bool s st.st_ready;
      N.field s n_reclaimed;
      N.list s (List.length st.st_reclaimed);
      List.iter (Oid.emit s) st.st_reclaimed;
      emit_int s n_wire_sent st.st_wire_sent;
      emit_int s n_wire_received st.st_wire_received;
      emit_int s n_dup_ignored st.st_dup_ignored
  | State ns ->
      N.field s n_node;
      Gather.emit s ns
  | Drop_peer rank -> emit_int s n_rank rank
  | Start | Status_req | State_req | Shutdown | Bye -> ()

let read_int r name =
  R.field r name;
  R.int r

let read r =
  match R.variant r cases with
  | 0 ->
      let rank = read_int r n_rank in
      let procs = read_int r n_procs in
      let seed = read_int r n_seed in
      Hello { rank; procs; seed }
  | 1 -> Start
  | 2 -> Heartbeat { tick = read_int r n_tick }
  | 3 ->
      R.field r n_msg;
      Net_msg (Msg.read r)
  | 4 -> Status_req
  | 5 ->
      let st_rank = read_int r n_rank in
      let st_tick = read_int r n_tick in
      R.field r n_ready;
      let st_ready = R.bool r in
      R.field r n_reclaimed;
      let st_reclaimed = List.init (R.list r) (fun _ -> Oid.read r) in
      let st_wire_sent = read_int r n_wire_sent in
      let st_wire_received = read_int r n_wire_received in
      let st_dup_ignored = read_int r n_dup_ignored in
      Status
        { st_rank; st_tick; st_ready; st_reclaimed; st_wire_sent; st_wire_received; st_dup_ignored }
  | 6 -> State_req
  | 7 ->
      R.field r n_node;
      State (Gather.read r)
  | 8 -> Drop_peer (read_int r n_rank)
  | 9 -> Shutdown
  | _ -> Bye
