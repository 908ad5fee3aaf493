open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

type trace_id = { initiator : Proc_id.t; seq : int }

let trace_id_compare a b =
  let c = Proc_id.compare a.initiator b.initiator in
  if c <> 0 then c else Int.compare a.seq b.seq

type query = { trace : trace_id; subject : Ref_key.t; visited : Ref_key.t list }

type verdict = Rooted | Cycle_back

type reply = { trace : trace_id; subject : Ref_key.t; verdict : verdict }

type t = Query of query | Reply of reply

(* A reference travels flat, as [src; owner; serial]. *)
let emit_ref s (k : Ref_key.t) =
  N.list s 3;
  N.int s (Proc_id.to_int k.src);
  N.int s (Proc_id.to_int (Oid.owner k.target));
  N.int s k.target.Oid.serial

(* Both cases are four fields: the trace, the subject, then the
   visited list or the verdict. *)
let arities = [| 4; 4 |]

let emit_head s i (trace : trace_id) subject =
  N.variant s i arities.(i);
  N.int s (Proc_id.to_int trace.initiator);
  N.int s trace.seq;
  emit_ref s subject

let emit s = function
  | Query q ->
      emit_head s 0 q.trace q.subject;
      N.list s (List.length q.visited);
      List.iter (emit_ref s) q.visited
  | Reply r ->
      emit_head s 1 r.trace r.subject;
      N.bool s (match r.verdict with Rooted -> true | Cycle_back -> false)

let read_ref r =
  if R.list r <> 3 then R.fail r "bad reference";
  let src = R.int r in
  let owner = R.int r in
  let serial = R.int r in
  if src < 0 || owner < 0 || serial < 0 then R.fail r "negative id";
  Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial)

let read r =
  let i = R.variant r arities in
  let initiator = R.int r in
  let seq = R.int r in
  let subject = read_ref r in
  if initiator < 0 then R.fail r "negative id";
  let trace = { initiator = Proc_id.of_int initiator; seq } in
  if i = 0 then begin
    let visited = List.init (R.list r) (fun _ -> read_ref r) in
    Query { trace; subject; visited }
  end
  else begin
    let verdict = if R.bool r then Rooted else Cycle_back in
    Reply { trace; subject; verdict }
  end
