(* Reference summaries: a record form of a summary with its own
   encoder, and the paper's description transcribed directly, as an
   independent check on the condensed summarizer in lib/snapshot —
   one breadth-first trace from the roots and one per scion,
   assembled straight into records.  StubsFrom keeps only remote
   references that have a stub; ScionsTo is read back off the scions.
   Shares no code with [Summarize]; [Summary] only reads its bytes. *)

open Adgc_algebra
open Adgc_rt
module N = Adgc_serial.Net_codec
module Summary = Adgc_snapshot.Summary

type scion_info = {
  key : Ref_key.t;
  scion_ic : int;
  stubs_from : Oid.Set.t;
  target_locally_reachable : bool;
  last_invoked : int;
}

type stub_info = {
  target : Oid.t;
  stub_ic : int;
  scions_to : Ref_key.Set.t;
  local_reach : bool;
}

type t = {
  proc : Proc_id.t;
  taken_at : int;
  scions : scion_info list; (* strictly ascending key *)
  stubs : stub_info list; (* strictly ascending target *)
}

(* Of several entries with one key, the last given is kept, as folding
   [Map.add] over them does. *)
let make ~proc ~taken_at ~scions ~stubs =
  let scions =
    List.fold_left (fun m s -> Ref_key.Map.add s.key s m) Ref_key.Map.empty scions
  and stubs = List.fold_left (fun m s -> Oid.Map.add s.target s m) Oid.Map.empty stubs in
  {
    proc;
    taken_at;
    scions = List.map snd (Ref_key.Map.bindings scions);
    stubs = List.map snd (Oid.Map.bindings stubs);
  }

(* The wire format of the record form, as [Summary] documents it; the
   entries go out in the order given, so an unsorted list makes bytes
   the index pass must reject. *)
let emit_entries s ~proc ~taken_at scions stubs =
  N.record s 4;
  N.int s (Proc_id.to_int proc);
  N.int s taken_at;
  N.list s (List.length scions);
  List.iter
    (fun si ->
      N.record s 5;
      Ref_key.emit s si.key;
      N.int s si.scion_ic;
      N.list s (Oid.Set.cardinal si.stubs_from);
      Oid.Set.iter (Oid.emit s) si.stubs_from;
      N.bool s si.target_locally_reachable;
      N.int s si.last_invoked)
    scions;
  N.list s (List.length stubs);
  List.iter
    (fun st ->
      N.record s 4;
      Oid.emit s st.target;
      N.int s st.stub_ic;
      N.list s (Ref_key.Set.cardinal st.scions_to);
      Ref_key.Set.iter (Ref_key.emit s) st.scions_to;
      N.bool s st.local_reach)
    stubs

let emit s t = emit_entries s ~proc:t.proc ~taken_at:t.taken_at t.scions t.stubs

let encode t = N.encode_shape emit t

(* Bytes of entries in the order given, repeats included. *)
let encode_entries ~proc ~taken_at scions stubs =
  N.encode_shape (fun s () -> emit_entries s ~proc ~taken_at scions stubs) ()

(* A view's runs as sets, and the whole view read back through every
   accessor. *)
let stubs_from v i = Oid.Set.of_list (Summary.fold_stubs_from v i List.cons [])

let scions_to v j = Ref_key.Set.of_list (Summary.fold_scions_to v j List.cons [])

let of_view v =
  let scions, stubs = Summary.counts v in
  {
    proc = Summary.proc v;
    taken_at = Summary.taken_at v;
    scions =
      List.init scions (fun i ->
          {
            key = Summary.scion_key v i;
            scion_ic = Summary.scion_ic v i;
            stubs_from = stubs_from v i;
            target_locally_reachable = Summary.target_locally_reachable v i;
            last_invoked = Summary.last_invoked v i;
          });
    stubs =
      List.init stubs (fun j ->
          {
            target = Summary.stub_target v j;
            stub_ic = Summary.stub_ic v j;
            scions_to = scions_to v j;
            local_reach = Summary.local_reach v j;
          });
  }

(* A view, one line per scion and per stub (the property printers'
   rendering). *)
let pp ppf v =
  let set pp_elt ppf elts =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_elt ppf (List.rev elts)
  in
  let scions, stubs = Summary.counts v in
  Format.fprintf ppf "@[<v>summary of %a at %d@," Proc_id.pp (Summary.proc v) (Summary.taken_at v);
  for i = 0 to scions - 1 do
    Format.fprintf ppf "  scion %a ic=%d root=%b StubsFrom={%a}@," Ref_key.pp
      (Summary.scion_key v i) (Summary.scion_ic v i)
      (Summary.target_locally_reachable v i)
      (set Oid.pp)
      (Summary.fold_stubs_from v i List.cons [])
  done;
  for j = 0 to stubs - 1 do
    Format.fprintf ppf "  stub  %a ic=%d local=%b ScionsTo={%a}@," Oid.pp (Summary.stub_target v j)
      (Summary.stub_ic v j) (Summary.local_reach v j) (set Ref_key.pp)
      (Summary.fold_scions_to v j List.cons [])
  done;
  Format.fprintf ppf "@]"

let scion_equal a b =
  Ref_key.equal a.key b.key && a.scion_ic = b.scion_ic
  && Oid.Set.equal a.stubs_from b.stubs_from
  && a.target_locally_reachable = b.target_locally_reachable
  && a.last_invoked = b.last_invoked

let stub_equal a b =
  Oid.equal a.target b.target && a.stub_ic = b.stub_ic
  && Ref_key.Set.equal a.scions_to b.scions_to
  && a.local_reach = b.local_reach

let equal a b =
  Proc_id.equal a.proc b.proc && a.taken_at = b.taken_at
  && List.equal scion_equal a.scions b.scions
  && List.equal stub_equal a.stubs b.stubs

let summary ~now (p : Process.t) =
  let heap = p.Process.heap in
  let from_roots = Heap.trace heap ~from:(Heap.roots heap) in
  let stub_entries = Stub_table.entries p.Process.stubs in
  let stubbed =
    Oid.Set.of_list (List.map (fun (e : Stub_table.entry) -> e.Stub_table.target) stub_entries)
  in
  let scions =
    List.map
      (fun (e : Scion_table.entry) ->
        let target = e.Scion_table.key.Ref_key.target in
        {
          key = e.Scion_table.key;
          scion_ic = e.Scion_table.ic;
          stubs_from = Oid.Set.inter stubbed (Heap.trace heap ~from:[ target ]).Heap.remote;
          target_locally_reachable = Oid.Set.mem target from_roots.Heap.local;
          last_invoked = e.Scion_table.last_invoked;
        })
      (Scion_table.entries p.Process.scions)
  in
  let stubs =
    List.map
      (fun (e : Stub_table.entry) ->
        let target = e.Stub_table.target in
        {
          target;
          stub_ic = e.Stub_table.ic;
          scions_to =
            List.fold_left
              (fun acc si ->
                if Oid.Set.mem target si.stubs_from then Ref_key.Set.add si.key acc else acc)
              Ref_key.Set.empty scions;
          local_reach = Oid.Set.mem target from_roots.Heap.remote;
        })
      stub_entries
  in
  make ~proc:p.Process.id ~taken_at:now ~scions ~stubs
