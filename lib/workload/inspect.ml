open Adgc_algebra
open Adgc_rt

let pp_oid names ppf oid =
  match names with
  | Some names -> Names.pp_oid names ppf oid
  | None -> Oid.pp ppf oid

let pp_ref names ppf (key : Ref_key.t) =
  Format.fprintf ppf "%a->%a" Proc_id.pp key.Ref_key.src (pp_oid names) key.Ref_key.target

let pp_process ?names ppf (p : Process.t) =
  Format.fprintf ppf "@[<v2>%a%s:@," Proc_id.pp p.Process.id
    (if p.Process.alive then "" else " (CRASHED)");
  let heap = p.Process.heap in
  Format.fprintf ppf "roots: %a@,"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") (pp_oid names))
    (Heap.roots heap);
  Heap.fold heap ~init:[] ~f:(fun acc obj -> obj :: acc)
  |> List.sort (fun (a : Heap.obj) b -> Oid.compare a.Heap.oid b.Heap.oid)
  |> List.iter (fun (obj : Heap.obj) ->
         let refs = Array.to_list obj.Heap.fields |> List.filter_map (fun f -> f) in
         Format.fprintf ppf "obj %a -> {%a}@," (pp_oid names) obj.Heap.oid
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") (pp_oid names))
           refs);
  List.iter
    (fun (e : Stub_table.entry) ->
      Format.fprintf ppf "stub  %a ic=%d%s%s%s@," (pp_oid names) e.Stub_table.target
        e.Stub_table.ic
        (if e.Stub_table.live then " live" else " dead")
        (if e.Stub_table.fresh then " fresh" else "")
        (if e.Stub_table.pins > 0 then Printf.sprintf " pins=%d" e.Stub_table.pins else ""))
    (Stub_table.entries p.Process.stubs);
  List.iter
    (fun (e : Scion_table.entry) ->
      Format.fprintf ppf "scion %a ic=%d%s@," (pp_ref names) e.Scion_table.key e.Scion_table.ic
        (if e.Scion_table.confirmed then "" else " unconfirmed"))
    (Scion_table.entries p.Process.scions);
  Format.fprintf ppf "@]"

let totals cluster =
  let n = Cluster.n_procs cluster in
  let stubs = ref 0 and scions = ref 0 in
  for i = 0 to n - 1 do
    let p = Cluster.proc cluster i in
    stubs := !stubs + Stub_table.size p.Process.stubs;
    scions := !scions + Scion_table.size p.Process.scions
  done;
  (!stubs, !scions)

let summary_line cluster =
  let objects = Cluster.total_objects cluster in
  let garbage = Cluster.garbage_count cluster in
  let stubs, scions = totals cluster in
  Printf.sprintf "t=%d objects=%d live=%d garbage=%d stubs=%d scions=%d in-flight=%d"
    (Cluster.now cluster) objects (objects - garbage) garbage stubs scions
    (Network.in_flight_count (Cluster.net cluster))

let pp_cluster ?names ppf cluster =
  for i = 0 to Cluster.n_procs cluster - 1 do
    Format.fprintf ppf "%a@," (pp_process ?names) (Cluster.proc cluster i)
  done;
  Format.fprintf ppf "%s@," (summary_line cluster)
