open Adgc_algebra
open Adgc_rt

type violation =
  | Live_reclaimed of { proc : Proc_id.t; oid : Oid.t }
  | Dangling_ref of { proc : Proc_id.t; holder : Oid.t; target : Oid.t }
  | Scion_dangles of { key : Ref_key.t }
  | Ic_regression of { key : Ref_key.t; stub_ic : int; scion_ic : int }

let pp ppf = function
  | Live_reclaimed { proc; oid } ->
      Format.fprintf ppf "globally-live %a reclaimed by %a's LGC" Oid.pp oid Proc_id.pp proc
  | Dangling_ref { proc; holder; target } ->
      Format.fprintf ppf "live %a at %a references freed %a" Oid.pp holder Proc_id.pp proc Oid.pp
        target
  | Scion_dangles { key } ->
      Format.fprintf ppf "scion %a guards an object its owner freed" Ref_key.pp key
  | Ic_regression { key; stub_ic; scion_ic } ->
      Format.fprintf ppf "scion %a counter %d ahead of stub counter %d" Ref_key.pp key scion_ic
        stub_ic

let kind = function
  | Live_reclaimed _ -> "live_reclaimed"
  | Dangling_ref _ -> "dangling_ref"
  | Scion_dangles _ -> "scion_dangles"
  | Ic_regression _ -> "ic_regression"

let describe v = Format.asprintf "%a" pp v

type view = {
  procs : Proc_id.t list;
  alive : Proc_id.t -> bool;
  is_live : Oid.t -> bool;
  mem : Oid.t -> bool;
  iter_refs : Proc_id.t -> (Oid.t -> Oid.t -> unit) -> unit;
  iter_scions : Proc_id.t -> (Ref_key.t -> int -> unit) -> unit;
  stub_ic : Proc_id.t -> Oid.t -> int option;
}

let structural v =
  let acc = ref [] in
  let push x = acc := x :: !acc in
  List.iter
    (fun proc ->
      (* Live references never dangle into freed memory.  Only
         globally-live holders are judged: a garbage object may
         legitimately outlive what it points at (sweeps are not
         atomic across processes), but nothing reachable may.  The
         rare dangling target is tested before the holder's
         liveness. *)
      v.iter_refs proc (fun holder target ->
          if v.alive (Oid.owner target) && (not (v.mem target)) && v.is_live holder then
            push (Dangling_ref { proc; holder; target }));
      (* Every scion guards an existing object, and its counter never
         overtakes the stub counter it is a copy of. *)
      v.iter_scions proc (fun key scion_ic ->
          if not (v.mem key.Ref_key.target) then push (Scion_dangles { key })
          else if v.alive key.Ref_key.src then
            match v.stub_ic key.Ref_key.src key.Ref_key.target with
            | Some stub_ic when stub_ic < scion_ic ->
                push (Ic_regression { key; stub_ic; scion_ic })
            | Some _ | None -> ()))
    v.procs;
  List.rev !acc

let check cluster =
  let rt = Cluster.rt cluster in
  let proc pid = Runtime.proc rt pid in
  structural
    {
      procs =
        Array.fold_right
          (fun (p : Process.t) acc -> if p.Process.alive then p.Process.id :: acc else acc)
          rt.Runtime.procs [];
      alive = (fun pid -> (proc pid).Process.alive);
      (* The set-free mark-byte predicate: at millions of objects the
         windowed oracle sweep cannot afford to build the live set. *)
      is_live = Cluster.live_predicate cluster;
      mem = (fun oid -> Heap.mem (proc (Oid.owner oid)).Process.heap oid);
      iter_refs =
        (fun pid f ->
          Heap.iter (proc pid).Process.heap (fun obj ->
              Array.iter
                (function None -> () | Some target -> f obj.Heap.oid target)
                obj.Heap.fields));
      iter_scions =
        (fun pid f ->
          List.iter
            (fun (e : Scion_table.entry) -> f e.Scion_table.key e.Scion_table.ic)
            (Scion_table.entries (proc pid).Process.scions));
      stub_ic =
        (fun holder target ->
          Option.map
            (fun (se : Stub_table.entry) -> se.Stub_table.ic)
            (Stub_table.find (proc holder).Process.stubs target));
    }

let watch_sweeps cluster f =
  let rt = Cluster.rt cluster in
  let previous = rt.Runtime.on_pre_sweep in
  rt.Runtime.on_pre_sweep <-
    Some
      (fun proc doomed ->
        (match previous with Some g -> g proc doomed | None -> ());
        (* Every heap is still intact here, so ground truth is exact
           for the objects about to go. *)
        List.iter (fun oid -> f (Live_reclaimed { proc; oid })) (Cluster.live_among cluster doomed))
