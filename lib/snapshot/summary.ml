open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read
module Sorted = Adgc_util.Sorted

type scion_info = {
  key : Ref_key.t;
  scion_ic : int;
  stubs_from : Oid.Set.t;
  target_locally_reachable : bool;
  last_invoked : int;
}

type stub_info = {
  target : Oid.t;
  stub_ic : int;
  scions_to : Ref_key.Set.t;
  local_reach : bool;
}

type t = {
  proc : Proc_id.t;
  taken_at : int;
  scions : scion_info array; (* strictly ascending key *)
  stubs : stub_info array; (* strictly ascending target *)
}

(* Sorted, keeping the last of equal keys as [Map.add] did; input that
   already ascends (the summarizer's and every encoder's output) is
   taken as it is. *)
let of_arrays ~proc ~taken_at ~scions ~stubs =
  {
    proc;
    taken_at;
    scions = Sorted.last_of_each (fun a b -> Ref_key.compare a.key b.key) scions;
    stubs = Sorted.last_of_each (fun a b -> Oid.compare a.target b.target) stubs;
  }

let make ~proc ~taken_at ~scions ~stubs =
  of_arrays ~proc ~taken_at ~scions:(Array.of_list scions) ~stubs:(Array.of_list stubs)

(* Every argument is passed down, so a lookup builds no closure. *)
let rec bsearch compare key a k lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare k (key a.(mid)) in
    if c = 0 then Some a.(mid)
    else if c < 0 then bsearch compare key a k lo mid
    else bsearch compare key a k (mid + 1) hi

let scion_key s = s.key

let stub_target s = s.target

let find_scion t key = bsearch Ref_key.compare scion_key t.scions key 0 (Array.length t.scions)

let find_stub t target = bsearch Oid.compare stub_target t.stubs target 0 (Array.length t.stubs)

let scion_list t = Array.to_list t.scions

let stub_list t = Array.to_list t.stubs

let counts t = (Array.length t.scions, Array.length t.stubs)

let scion_equal a b =
  Ref_key.equal a.key b.key && a.scion_ic = b.scion_ic
  && Oid.Set.equal a.stubs_from b.stubs_from
  && a.target_locally_reachable = b.target_locally_reachable
  && a.last_invoked = b.last_invoked

let stub_equal a b =
  Oid.equal a.target b.target && a.stub_ic = b.stub_ic
  && Ref_key.Set.equal a.scions_to b.scions_to
  && a.local_reach = b.local_reach

let array_equal eq a b = Array.length a = Array.length b && Array.for_all2 eq a b

let equal a b =
  Proc_id.equal a.proc b.proc
  && array_equal scion_equal a.scions b.scions
  && array_equal stub_equal a.stubs b.stubs

(* ------------------------------------------------------------------ *)
(* Wire format *)


let emit_scion s si =
  N.record s 5;
  Ref_key.emit s si.key;
  N.int s si.scion_ic;
  N.list s (Oid.Set.cardinal si.stubs_from);
  Oid.Set.iter (Oid.emit s) si.stubs_from;
  N.bool s si.target_locally_reachable;
  N.int s si.last_invoked

let emit_stub s st =
  N.record s 4;
  Oid.emit s st.target;
  N.int s st.stub_ic;
  N.list s (Ref_key.Set.cardinal st.scions_to);
  Ref_key.Set.iter (Ref_key.emit s) st.scions_to;
  N.bool s st.local_reach

let emit s t =
  N.record s 4;
  N.int s (Proc_id.to_int t.proc);
  N.int s t.taken_at;
  N.list s (Array.length t.scions);
  Array.iter (emit_scion s) t.scions;
  N.list s (Array.length t.stubs);
  Array.iter (emit_stub s) t.stubs

let encode t = N.encode_shape emit t

(* The direct reader: [emit] read back, with the guards the tree
   decoder had (no negative process ids or serials). *)
let read_many r f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f r :: acc) in
  go (R.list r) []

(* [Array.init] applies [f] in index order, so items are read in wire
   order; the count is bounded by the remaining input. *)
let read_array r f = Array.init (R.list r) (fun _ -> f r)

let read_scion r =
  R.record r 5;
  let key = Ref_key.read r in
  let scion_ic = R.int r in
  let stubs_from = Oid.Set.of_list (read_many r Oid.read) in
  let target_locally_reachable = R.bool r in
  let last_invoked = R.int r in
  { key; scion_ic; stubs_from; target_locally_reachable; last_invoked }

let read_stub r =
  R.record r 4;
  let target = Oid.read r in
  let stub_ic = R.int r in
  let scions_to = Ref_key.Set.of_list (read_many r Ref_key.read) in
  let local_reach = R.bool r in
  { target; stub_ic; scions_to; local_reach }

let read r =
  R.record r 4;
  let proc = R.int r in
  if proc < 0 then R.fail r "negative id";
  let taken_at = R.int r in
  let scions = read_array r read_scion in
  let stubs = read_array r read_stub in
  of_arrays ~proc:(Proc_id.of_int proc) ~taken_at ~scions ~stubs

let decode bytes =
  match R.run read bytes with t -> Some t | exception Adgc_serial.Wire.Malformed _ -> None

let pp ppf t =
  Format.fprintf ppf "@[<v>summary of %a at %d@," Proc_id.pp t.proc t.taken_at;
  List.iter
    (fun s ->
      Format.fprintf ppf "  scion %a ic=%d root=%b StubsFrom={%a}@," Ref_key.pp s.key s.scion_ic
        s.target_locally_reachable
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Oid.pp)
        (Oid.Set.elements s.stubs_from))
    (scion_list t);
  List.iter
    (fun s ->
      Format.fprintf ppf "  stub  %a ic=%d local=%b ScionsTo={%a}@," Oid.pp s.target s.stub_ic
        s.local_reach
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Ref_key.pp)
        (Ref_key.Set.elements s.scions_to))
    (stub_list t);
  Format.fprintf ppf "@]"
