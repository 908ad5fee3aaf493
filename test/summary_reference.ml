(* Reference summarizer: the paper's description transcribed directly,
   as an independent check on the condensed one in lib/snapshot — one
   breadth-first trace from the roots and one per scion, assembled
   straight into [Summary.make].  StubsFrom keeps only remote
   references that have a stub; ScionsTo is read back off the scions.
   Shares no code with [Summarize]. *)

open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary

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
          Summary.key = e.Scion_table.key;
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
          Summary.target;
          stub_ic = e.Stub_table.ic;
          scions_to =
            List.fold_left
              (fun acc (si : Summary.scion_info) ->
                if Oid.Set.mem target si.Summary.stubs_from then Ref_key.Set.add si.Summary.key acc
                else acc)
              Ref_key.Set.empty scions;
          local_reach = Oid.Set.mem target from_roots.Heap.remote;
        })
      stub_entries
  in
  Summary.make ~proc:p.Process.id ~taken_at:now ~scions ~stubs
