module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type t = { id : Detection_id.t; algebra : Algebra.t; frontier : Ref_key.t; hops : int; budget : int }

let make ~id ~algebra ~frontier ~hops ~budget = { id; algebra; frontier; hops; budget }

(* The header's ints, then the algebra's entries, as items of the run
   the carrier opens. *)
let header = 7

let items t = header + Algebra.compact_length t.algebra

let emit_items s t =
  N.raw s (Proc_id.to_int t.id.Detection_id.initiator);
  N.raw s t.id.Detection_id.seq;
  Ref_key.emit s t.frontier;
  N.raw s t.hops;
  N.raw s t.budget;
  (* The paper's optimized two-presence-bit representation. *)
  Algebra.emit_entries s t.algebra

let read_items r n =
  if n < header then R.fail r "short cdm run";
  let initiator = R.raw r in
  let seq = R.raw r in
  let frontier = Ref_key.read r in
  let hops = R.raw r in
  let budget = R.raw r in
  let algebra = Algebra.read_entries r (n - header) in
  let id = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq in
  make ~id ~algebra ~frontier ~hops ~budget
