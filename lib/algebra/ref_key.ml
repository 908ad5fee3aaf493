type t = { src : Proc_id.t; target : Oid.t }

let make ~src ~target = { src; target }

let owner t = Oid.owner t.target

let compare a b =
  let c = Proc_id.compare a.src b.src in
  if c <> 0 then c else Oid.compare a.target b.target

let equal a b = compare a b = 0

let hash t = (Proc_id.hash t.src * 1000003) + Oid.hash t.target

let pp ppf t = Format.fprintf ppf "%a->%a" Proc_id.pp t.src Oid.pp t.target

module N = Adgc_serial.Net_codec

let emit s t =
  N.raw s (Proc_id.to_int t.src);
  Oid.emit s t.target

let read r =
  let src = N.Read.raw r in
  { src = Proc_id.of_int src; target = Oid.read r }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
