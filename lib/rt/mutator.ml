open Adgc_algebra

let alloc cluster ~proc ?fields ?payload () =
  let p = Cluster.proc cluster proc in
  Heap.alloc ?fields ?payload p.Process.heap

let proc_of cluster (obj : Heap.obj) =
  Cluster.proc cluster (Proc_id.to_int (Oid.owner obj.Heap.oid))

let add_root cluster obj =
  let p = proc_of cluster obj in
  Heap.add_root p.Process.heap obj.Heap.oid

let remove_root cluster obj =
  let p = proc_of cluster obj in
  Heap.remove_root p.Process.heap obj.Heap.oid

let link cluster ~from_ ~to_ =
  let owner_from = Oid.owner from_.Heap.oid and owner_to = Oid.owner to_.Heap.oid in
  if not (Proc_id.equal owner_from owner_to) then
    invalid_arg
      (Format.asprintf "Mutator.link: %a and %a live in different processes" Oid.pp
         from_.Heap.oid Oid.pp to_.Heap.oid);
  let p = proc_of cluster from_ in
  ignore (Heap.add_ref p.Process.heap from_ to_.Heap.oid : int)

let unlink cluster ~from_ ~to_ =
  let p = proc_of cluster from_ in
  ignore (Heap.remove_ref p.Process.heap from_ to_.Heap.oid : bool)

let wire_remote cluster ~holder ~target =
  let holder_proc = proc_of cluster holder in
  let target_proc = proc_of cluster target in
  if Proc_id.equal holder_proc.Process.id target_proc.Process.id then
    invalid_arg "Mutator.wire_remote: both objects are in the same process (use link)";
  let rt = Cluster.rt cluster in
  let now = Runtime.now rt in
  ignore (Heap.add_ref holder_proc.Process.heap holder target.Heap.oid : int);
  ignore (Stub_table.ensure holder_proc.Process.stubs ~now target.Heap.oid : Stub_table.entry);
  let key = Ref_key.make ~src:holder_proc.Process.id ~target:target.Heap.oid in
  let scion = Scion_table.ensure target_proc.Process.scions ~now key in
  Scion_table.confirm scion

let unwire_remote cluster ~holder ~target =
  let p = proc_of cluster holder in
  ignore (Heap.remove_ref p.Process.heap holder target.Heap.oid : bool)

let call cluster ~src ~target ?args ?behavior ?on_reply () =
  Rmi.call (Cluster.rt cluster) ~src:(Proc_id.of_int src) ~target ?args ?behavior ?on_reply ()

let invoke cluster ~src ~target = call cluster ~src ~target ()

let store_args _rt (p : Process.t) ~target ~args =
  (match Heap.get p.Process.heap target with
  | Some obj -> List.iter (fun a -> ignore (Heap.add_ref p.Process.heap obj a : int)) args
  | None -> ());
  []

let return_field_refs _rt (p : Process.t) ~target ~args:_ =
  match Heap.get p.Process.heap target with
  | Some obj ->
      Array.to_list obj.Heap.fields |> List.filter_map (fun slot -> slot)
  | None -> []
