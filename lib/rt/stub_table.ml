open Adgc_algebra

type entry = {
  target : Oid.t;
  mutable ic : int;
  mutable pins : int;
  mutable live : bool;
  mutable fresh : bool;
  mutable created_at : int;
}

type t = {
  owner : Proc_id.t;
  entries : entry Oid.Tbl.t;
  (* Invocation counters survive the entry: a reference dropped and
     later re-acquired resumes counting where it left off, keeping the
     counter monotone per (process, target) identity.  Without this, a
     re-created stub would restart at 0 below the owner's scion value
     and the DCDA's IC safety check would reject the reference
     forever. *)
  retired_ics : int Oid.Tbl.t;
}

let create ~owner = { owner; entries = Oid.Tbl.create 32; retired_ics = Oid.Tbl.create 8 }

let find t target = Oid.Tbl.find_opt t.entries target

let mem t target = Oid.Tbl.mem t.entries target

let ensure t ~now target =
  if Proc_id.equal (Oid.owner target) t.owner then
    invalid_arg (Format.asprintf "Stub_table.ensure: %a is local to %a" Oid.pp target Proc_id.pp t.owner);
  match find t target with
  | Some entry -> entry
  | None ->
      let ic = Option.value ~default:0 (Oid.Tbl.find_opt t.retired_ics target) in
      Oid.Tbl.remove t.retired_ics target;
      let entry = { target; ic; pins = 0; live = true; fresh = true; created_at = now } in
      Oid.Tbl.add t.entries target entry;
      entry

let bump_ic t target =
  match find t target with
  | Some entry ->
      entry.ic <- entry.ic + 1;
      entry.ic
  | None ->
      invalid_arg (Format.asprintf "Stub_table.bump_ic: no stub for %a at %a" Oid.pp target Proc_id.pp t.owner)

let ic t target = Option.map (fun e -> e.ic) (find t target)

let pin t ~now target =
  let entry = ensure t ~now target in
  entry.pins <- entry.pins + 1

let unpin t target =
  match find t target with
  | Some entry when entry.pins > 0 -> entry.pins <- entry.pins - 1
  | Some _ | None -> ()

let mark_all_dead t = Oid.Tbl.iter (fun _ e -> e.live <- false) t.entries

let mark_live t target =
  match find t target with Some e -> e.live <- true | None -> ()

let keeps e = e.live || e.fresh || e.pins > 0

let sweep t =
  let dead = Oid.Tbl.fold (fun target e acc -> if keeps e then acc else (target, e.ic) :: acc) t.entries [] in
  List.iter
    (fun (target, ic) ->
      if ic > 0 then Oid.Tbl.replace t.retired_ics target ic;
      Oid.Tbl.remove t.entries target)
    dead;
  List.map fst dead

let advertised t =
  Oid.Tbl.fold (fun target e acc -> if keeps e then (target, e.ic) :: acc else acc) t.entries []
  |> Adgc_util.Sorted.list (fun (a, _) (b, _) -> Oid.compare a b)

let advertised_to t owner =
  Oid.Tbl.fold
    (fun target e acc ->
      if keeps e && Proc_id.equal (Oid.owner target) owner then Oid.Map.add target e.ic acc else acc)
    t.entries Oid.Map.empty

let clear_fresh t = Oid.Tbl.iter (fun _ e -> e.fresh <- false) t.entries

let entries t =
  Oid.Tbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> Adgc_util.Sorted.list (fun a b -> Oid.compare a.target b.target)

let iter t f = Oid.Tbl.iter (fun _ e -> f e) t.entries

let size t = Oid.Tbl.length t.entries
