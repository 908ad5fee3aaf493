open Adgc_algebra

type t = { by_oid : string Oid.Tbl.t; by_name : (string, Oid.t) Hashtbl.t }

let create () = { by_oid = Oid.Tbl.create 64; by_name = Hashtbl.create 64 }

let register t (obj : Adgc_rt.Heap.obj) name =
  Oid.Tbl.replace t.by_oid obj.Adgc_rt.Heap.oid name;
  Hashtbl.replace t.by_name name obj.Adgc_rt.Heap.oid

let name t oid = Oid.Tbl.find_opt t.by_oid oid

let pp_oid t ppf oid =
  match name t oid with
  | Some n -> Format.fprintf ppf "%s@@%a" n Proc_id.pp (Oid.owner oid)
  | None -> Oid.pp ppf oid

let pp_ref t ppf (key : Ref_key.t) =
  Format.fprintf ppf "%a->%a" Proc_id.pp key.Ref_key.src (pp_oid t) key.Ref_key.target
