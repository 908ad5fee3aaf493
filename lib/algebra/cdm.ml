module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t = { id : Detection_id.t; algebra : Algebra.t; frontier : Ref_key.t; hops : int; budget : int }

let make ~id ~algebra ~frontier ~hops ~budget = { id; algebra; frontier; hops; budget }

let dest t = Ref_key.owner t.frontier

let n_cdm = N.Name.v "cdm"
let n_initiator = N.Name.v "initiator"
let n_seq = N.Name.v "seq"
let n_algebra = N.Name.v "algebra"
let n_f_src = N.Name.v "f_src"
let n_f_owner = N.Name.v "f_owner"
let n_f_serial = N.Name.v "f_serial"
let n_hops = N.Name.v "hops"
let n_budget = N.Name.v "budget"

let emit s t =
  N.record s n_cdm 8;
  N.field s n_initiator;
  N.int s (Proc_id.to_int t.id.Detection_id.initiator);
  N.field s n_seq;
  N.int s t.id.Detection_id.seq;
  (* The paper's optimized two-presence-bit representation. *)
  N.field s n_algebra;
  Algebra.emit_compact s t.algebra;
  N.field s n_f_src;
  N.int s (Proc_id.to_int t.frontier.Ref_key.src);
  N.field s n_f_owner;
  N.int s (Proc_id.to_int (Oid.owner t.frontier.Ref_key.target));
  N.field s n_f_serial;
  N.int s t.frontier.Ref_key.target.Oid.serial;
  N.field s n_hops;
  N.int s t.hops;
  N.field s n_budget;
  N.int s t.budget

let cases = [| (n_cdm, 8) |]

let read_case r _ =
  R.field r n_initiator;
  let initiator = R.int r in
  R.field r n_seq;
  let seq = R.int r in
  R.field r n_algebra;
  let algebra = Algebra.read_compact r in
  R.field r n_f_src;
  let f_src = R.int r in
  R.field r n_f_owner;
  let f_owner = R.int r in
  R.field r n_f_serial;
  let f_serial = R.int r in
  R.field r n_hops;
  let hops = R.int r in
  R.field r n_budget;
  let budget = R.int r in
  if initiator < 0 || f_src < 0 || f_owner < 0 || f_serial < 0 || hops < 0 || budget < 0 then
    R.fail r "negative field";
  let id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq in
  let target = Oid.make ~owner:(Proc_id.of_int f_owner) ~serial:f_serial in
  let frontier = Ref_key.make ~src:(Proc_id.of_int f_src) ~target in
  make ~id ~algebra ~frontier ~hops ~budget

let read r = read_case r (R.variant r cases)

let pp ppf t =
  Format.fprintf ppf "CDM[%a hops=%d budget=%d frontier=%a] %a" Detection_id.pp t.id t.hops
    t.budget Ref_key.pp t.frontier Algebra.pp t.algebra
