open Adgc_algebra
open Adgc_rt
module Stats = Adgc_util.Stats

type t = {
  rt : Runtime.t;
  read_back : string -> string;
  mutable subscribers : (Summary.t -> unit) list;
}

let create ?(read_back = Fun.id) rt =
  { rt; read_back; subscribers = [] }

let take t (p : Process.t) =
  let now = Runtime.now t.rt in
  let taken = Summarize.run ~now p in
  let encoded = Summary.bytes taken in
  (* Publish what the disk gives back, not the bytes in memory.  Bytes
     that come back as the very string written are what the writer
     indexed; anything else is read afresh. *)
  let published, decode_failed =
    let back = t.read_back encoded in
    if back == encoded then (taken, false)
    else match Summary.of_bytes back with Some s -> (s, false) | None -> (taken, true)
  in
  Stats.incr t.rt.Runtime.stats "snapshot.taken";
  Stats.add t.rt.Runtime.stats "snapshot.bytes" (String.length encoded);
  if decode_failed then Stats.incr t.rt.Runtime.stats "snapshot.decode_failures";
  if Adgc_obs.Span.enabled t.rt.Runtime.obs then begin
    Stats.observe t.rt.Runtime.stats "snapshot.size_bytes" (float_of_int (String.length encoded));
    ignore
      (Adgc_obs.Span.event t.rt.Runtime.obs ~time:now ~parent:t.rt.Runtime.run_span
         ~proc:(Proc_id.to_int p.Process.id)
         ~args:[ ("bytes", string_of_int (String.length encoded)) ]
         ~kind:Adgc_obs.Span.Snapshot
         (Printf.sprintf "snapshot %s" (Proc_id.to_string p.Process.id))
        : int)
  end;
  Runtime.log t.rt ~topic:"snapshot" "%a summarized: %d scions, %d stubs, %d bytes" Proc_id.pp
    p.Process.id
    (fst (Summary.counts published))
    (snd (Summary.counts published))
    (String.length encoded);
  List.iter (fun f -> f published) t.subscribers;
  published

let take_all t = Array.iter (fun p -> ignore (take t p : Summary.t)) t.rt.Runtime.procs

let subscribe t f = t.subscribers <- f :: t.subscribers
