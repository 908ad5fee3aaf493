open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t =
  | Stamp of (Oid.t * int) list
  | Report of { round_time : int }
  | Threshold of { value : int }

(* One packed run, [kind; fields...]: a stamp entry is
   [owner; serial; stamp], the id as Oid.emit writes it. *)
let emit s = function
  | Stamp stamps ->
      N.packed s (1 + (3 * List.length stamps));
      N.raw s 0;
      List.iter
        (fun (o, stamp) ->
          Oid.emit s o;
          N.raw s stamp)
        stamps
  | Report { round_time } ->
      N.packed s 2;
      N.raw s 1;
      N.raw s round_time
  | Threshold { value } ->
      N.packed s 2;
      N.raw s 2;
      N.raw s value

let read r =
  let k = R.packed r - 1 in
  if k < 0 then R.fail r "empty hughes run";
  match R.raw r with
  | 0 ->
      let n = R.entries r k ~fixed:0 ~width:3 "stamp" in
      Stamp
        (List.init n (fun _ ->
             let o = Oid.read r in
             (o, R.raw r)))
  | 1 when k = 1 -> Report { round_time = R.raw r }
  | 2 when k = 1 -> Threshold { value = R.raw r }
  | 1 | 2 -> R.fail r "ragged hughes run"
  | _ -> R.fail r "unknown hughes kind"
