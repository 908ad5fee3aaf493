module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t = { id : Detection_id.t; algebra : Algebra.t; frontier : Ref_key.t; hops : int; budget : int }

let make ~id ~algebra ~frontier ~hops ~budget = { id; algebra; frontier; hops; budget }

let dest t = Ref_key.owner t.frontier

(* The fields only: whoever carries a CDM writes the header, so a
   message payload spends one case header on it, not two. *)
let arity = 8

let emit s t =
  N.int s (Proc_id.to_int t.id.Detection_id.initiator);
  N.int s t.id.Detection_id.seq;
  (* The paper's optimized two-presence-bit representation. *)
  Algebra.emit_compact s t.algebra;
  N.int s (Proc_id.to_int t.frontier.Ref_key.src);
  N.int s (Proc_id.to_int (Oid.owner t.frontier.Ref_key.target));
  N.int s t.frontier.Ref_key.target.Oid.serial;
  N.int s t.hops;
  N.int s t.budget

let read r =
  let initiator = R.int r in
  let seq = R.int r in
  let algebra = Algebra.read_compact r in
  let f_src = R.int r in
  let f_owner = R.int r in
  let f_serial = R.int r in
  let hops = R.int r in
  let budget = R.int r in
  if initiator < 0 || f_src < 0 || f_owner < 0 || f_serial < 0 || hops < 0 || budget < 0 then
    R.fail r "negative field";
  let id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq in
  let target = Oid.make ~owner:(Proc_id.of_int f_owner) ~serial:f_serial in
  let frontier = Ref_key.make ~src:(Proc_id.of_int f_src) ~target in
  make ~id ~algebra ~frontier ~hops ~budget

let pp ppf t =
  Format.fprintf ppf "CDM[%a hops=%d budget=%d frontier=%a] %a" Detection_id.pp t.id t.hops
    t.budget Ref_key.pp t.frontier Algebra.pp t.algebra
