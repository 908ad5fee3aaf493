open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t =
  | Stamp of (Oid.t * int) list
  | Report of { round_time : int }
  | Threshold of { value : int }

let arities = [| 1; 1; 1 |]

(* A stamp travels flat, as [owner; serial; stamp]. *)
let emit s = function
  | Stamp stamps ->
      N.variant s 0 1;
      N.list s (List.length stamps);
      List.iter
        (fun ((o : Oid.t), stamp) ->
          N.list s 3;
          N.int s (Proc_id.to_int (Oid.owner o));
          N.int s o.Oid.serial;
          N.int s stamp)
        stamps
  | Report { round_time } ->
      N.variant s 1 1;
      N.int s round_time
  | Threshold { value } ->
      N.variant s 2 1;
      N.int s value

let read_stamp r =
  if R.list r <> 3 then R.fail r "bad stamp";
  let owner = R.int r in
  let serial = R.int r in
  let stamp = R.int r in
  if owner < 0 || serial < 0 then R.fail r "negative id";
  (Oid.make ~owner:(Proc_id.of_int owner) ~serial, stamp)

let read r =
  match R.variant r arities with
  | 0 -> Stamp (List.init (R.list r) (fun _ -> read_stamp r))
  | 1 -> Report { round_time = R.int r }
  | _ -> Threshold { value = R.int r }
