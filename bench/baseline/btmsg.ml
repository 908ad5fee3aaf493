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

(* One packed run, [kind; initiator; seq; subject; ...] with each
   reference as Ref_key.emit writes it: a query's visited references
   follow, a reply's verdict is 1 for rooted and 0 for a cycle. *)
let emit s t =
  let kind, (trace : trace_id), subject, fields =
    match t with
    | Query q -> (0, q.trace, q.subject, 3 * List.length q.visited)
    | Reply r -> (1, r.trace, r.subject, 1)
  in
  N.packed s (6 + fields);
  N.raw s kind;
  N.raw s (Proc_id.to_int trace.initiator);
  N.raw s trace.seq;
  Ref_key.emit s subject;
  match t with
  | Query q -> List.iter (Ref_key.emit s) q.visited
  | Reply r -> N.raw s (match r.verdict with Rooted -> 1 | Cycle_back -> 0)

let read r =
  let k = R.packed r in
  if k < 6 then R.fail r "short back-tracing run";
  let kind = R.raw r in
  let initiator = R.raw r in
  let seq = R.raw r in
  let subject = Ref_key.read r in
  let trace = { initiator = Proc_id.of_int initiator; seq } in
  match kind with
  | 0 ->
      let n = R.entries r k ~fixed:6 ~width:3 "query" in
      Query { trace; subject; visited = List.init n (fun _ -> Ref_key.read r) }
  | 1 ->
      if k <> 7 then R.fail r "ragged reply run";
      let verdict =
        match R.raw r with 1 -> Rooted | 0 -> Cycle_back | _ -> R.fail r "bad verdict"
      in
      Reply { trace; subject; verdict }
  | _ -> R.fail r "unknown back-tracing kind"
