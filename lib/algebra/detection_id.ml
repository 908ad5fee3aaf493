type t = { initiator : Proc_id.t; seq : int }

let make ~initiator ~seq = { initiator; seq }

let compare a b =
  let c = Proc_id.compare a.initiator b.initiator in
  if c <> 0 then c else Int.compare a.seq b.seq

let pp ppf t = Format.fprintf ppf "D%d@@%a" t.seq Proc_id.pp t.initiator

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
