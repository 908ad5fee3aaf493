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
  N.list s 2;
  N.int s (Proc_id.to_int t.owner);
  N.int s t.serial

let read r =
  if N.Read.list r <> 2 then N.Read.fail r "bad oid";
  let owner = N.Read.int r in
  let serial = N.Read.int r in
  if owner < 0 || serial < 0 then N.Read.fail r "negative id";
  make ~owner:(Proc_id.of_int owner) ~serial

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
