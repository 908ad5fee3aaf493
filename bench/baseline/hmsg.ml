open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t =
  | Stamp of (Oid.t * int) list
  | Report of { round_time : int }
  | Threshold of { value : int }

let n_h_stamp = N.Name.v "h_stamp"
let n_h_report = N.Name.v "h_report"
let n_h_threshold = N.Name.v "h_threshold"
let n_stamps = N.Name.v "stamps"
let n_round_time = N.Name.v "round_time"
let n_value = N.Name.v "value"

(* A stamp travels flat, as [owner; serial; stamp]. *)
let emit s = function
  | Stamp stamps ->
      N.record s n_h_stamp 1;
      N.field s n_stamps;
      N.list s (List.length stamps);
      List.iter
        (fun ((o : Oid.t), stamp) ->
          N.list s 3;
          N.int s (Proc_id.to_int (Oid.owner o));
          N.int s o.Oid.serial;
          N.int s stamp)
        stamps
  | Report { round_time } ->
      N.record s n_h_report 1;
      N.field s n_round_time;
      N.int s round_time
  | Threshold { value } ->
      N.record s n_h_threshold 1;
      N.field s n_value;
      N.int s value

let cases = [| (n_h_stamp, 1); (n_h_report, 1); (n_h_threshold, 1) |]

let read_stamp r =
  if R.list r <> 3 then R.fail r "bad stamp";
  let owner = R.int r in
  let serial = R.int r in
  let stamp = R.int r in
  if owner < 0 || serial < 0 then R.fail r "negative id";
  (Oid.make ~owner:(Proc_id.of_int owner) ~serial, stamp)

let read r =
  match R.variant r cases with
  | 0 ->
      R.field r n_stamps;
      Stamp (List.init (R.list r) (fun _ -> read_stamp r))
  | 1 ->
      R.field r n_round_time;
      Report { round_time = R.int r }
  | _ ->
      R.field r n_value;
      Threshold { value = R.int r }
