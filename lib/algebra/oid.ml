type t = { owner : Proc_id.t; serial : int }

let make ~owner ~serial =
  if serial < 0 then invalid_arg "Oid.make: negative serial";
  { owner; serial }

let owner t = t.owner

let compare a b =
  let c = Proc_id.compare a.owner b.owner in
  if c <> 0 then c else Int.compare a.serial b.serial

let equal a b = compare a b = 0

let hash t = (Proc_id.hash t.owner * 1000003) + t.serial

let pp ppf t = Format.fprintf ppf "#%d@@%a" t.serial Proc_id.pp t.owner

module N = Adgc_serial.Net_codec

let emit s t =
  N.raw s (Proc_id.to_int t.owner);
  N.raw s t.serial

let read r =
  let owner = N.Read.raw r in
  { owner = Proc_id.of_int owner; serial = N.Read.raw r }

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
