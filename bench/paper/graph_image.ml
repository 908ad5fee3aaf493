open Adgc_algebra
open Adgc_rt

let oid_sval (o : Oid.t) =
  Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let obj_sval (obj : Heap.obj) =
  let fields =
    Array.to_list obj.Heap.fields
    |> List.map (function None -> Sval.Unit | Some target -> oid_sval target)
  in
  Sval.Record
    ( "object",
      [
        ("oid", oid_sval obj.Heap.oid);
        ("payload", Sval.Str (String.make obj.Heap.payload 'x'));
        ("fields", Sval.List fields);
      ] )

let stub_sval (e : Stub_table.entry) =
  (* Stubs serialize with their remoting endpoint, as real proxies do. *)
  let target = e.Stub_table.target in
  let uri =
    Printf.sprintf "tcp://node-%d.cluster.local:8080/remoting/obj/%d"
      (Proc_id.to_int (Oid.owner target))
      target.Oid.serial
  in
  Sval.Record
    ( "stub",
      [
        ("target", oid_sval target);
        ("ic", Sval.Int e.Stub_table.ic);
        ("uri", Sval.Str uri);
      ] )

let of_process ?(include_stubs = false) (p : Process.t) =
  let objects = Heap.fold p.Process.heap ~init:[] ~f:(fun acc obj -> obj_sval obj :: acc) in
  let stubs =
    if include_stubs then List.map stub_sval (Stub_table.entries p.Process.stubs) else []
  in
  Sval.Record
    ( "heap_image",
      [
        ("proc", Sval.Int (Proc_id.to_int p.Process.id));
        ("objects", Sval.List objects);
        ("stubs", Sval.List stubs);
      ] )

let object_count = function
  | Sval.Record ("heap_image", [ _; ("objects", Sval.List objects); _ ]) ->
      Some (List.length objects)
  | _ -> None
