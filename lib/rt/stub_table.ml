open Adgc_algebra

type entry = {
  target : Oid.t;
  mutable ic : int;
  mutable pins : int;
  mutable live : bool;
  mutable fresh : bool;
  mutable created_at : int;
}

(* The stubs for one owner's objects.  The serials sit in an array
   sorted ascending, with the entries beside them: lookups are binary
   searches, an advertisement is one linear walk, and references to an
   owner usually arrive in allocation order, so an insertion is usually
   an append.  Most owners are referenced through one or two stubs, so
   small groups grow one slot at a time. *)
type group = {
  mutable serials : int array; (* [0, count) strictly ascending *)
  mutable entries : entry array; (* entries.(i).target.serial = serials.(i) *)
  mutable count : int;
}

type t = {
  owner : Proc_id.t;
  mutable groups : group array; (* by owner rank; [absent] where no stub *)
  mutable size : int;
  (* Invocation counters survive the entry: a reference dropped and
     later re-acquired resumes counting where it left off, keeping the
     counter monotone per (process, target) identity.  Without this, a
     re-created stub would restart at 0 below the owner's scion value
     and the DCDA's IC safety check would reject the reference
     forever. *)
  mutable retired_ics : int Oid.Map.t;
}

(* Shared by every owner without stubs, and never written: a group
   exists only while its owner has a stub. *)
let absent = { serials = [||]; entries = [||]; count = 0 }

let create ~owner = { owner; groups = [||]; size = 0; retired_ics = Oid.Map.empty }

let group t owner =
  let r = Proc_id.to_int owner in
  if r < Array.length t.groups then t.groups.(r) else absent

(* Index of [serial] in the group, or [-(insertion point) - 1].  Every
   argument is passed down, so a search builds no closure. *)
let rec search_between serials serial lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let c = Int.compare serial serials.(mid) in
    if c = 0 then mid else if c < 0 then search_between serials serial lo mid
    else search_between serials serial (mid + 1) hi

let search g serial =
  if g.count > 0 && serial > g.serials.(g.count - 1) then -g.count - 1 (* the usual append *)
  else search_between g.serials serial 0 g.count

let find t (target : Oid.t) =
  let g = group t target.Oid.owner in
  let i = search g target.Oid.serial in
  if i >= 0 then Some g.entries.(i) else None

let mem t target = Option.is_some (find t target)

(* Room for one more entry: exact fit up to 8, then doubling. *)
let insert_at g i entry =
  if g.count = Array.length g.serials then begin
    let room = if g.count < 8 then g.count + 1 else 2 * g.count in
    let serials = Array.make room 0 and entries = Array.make room entry in
    Array.blit g.serials 0 serials 0 g.count;
    Array.blit g.entries 0 entries 0 g.count;
    g.serials <- serials;
    g.entries <- entries
  end;
  Array.blit g.serials i g.serials (i + 1) (g.count - i);
  Array.blit g.entries i g.entries (i + 1) (g.count - i);
  g.serials.(i) <- entry.target.Oid.serial;
  g.entries.(i) <- entry;
  g.count <- g.count + 1

(* A group for [entry], the first of its owner's. *)
let add_group t r entry =
  if r >= Array.length t.groups then begin
    (* Owners arrive in no particular rank order, so the array grows
       by a few slots past the rank, not by doubling: it ends near the
       highest rank referenced, not up to twice that. *)
    let bigger = Array.make (Int.max (r + 1) (Array.length t.groups + 8)) absent in
    Array.blit t.groups 0 bigger 0 (Array.length t.groups);
    t.groups <- bigger
  end;
  t.groups.(r) <- { serials = [| entry.target.Oid.serial |]; entries = [| entry |]; count = 1 }

let ensure t ~now (target : Oid.t) =
  if Proc_id.equal target.Oid.owner t.owner then
    invalid_arg (Format.asprintf "Stub_table.ensure: %a is local to %a" Oid.pp target Proc_id.pp t.owner);
  let g = group t target.Oid.owner in
  let i = search g target.Oid.serial in
  if i >= 0 then g.entries.(i)
  else begin
    let ic =
      match Oid.Map.find_opt target t.retired_ics with
      | Some ic ->
          t.retired_ics <- Oid.Map.remove target t.retired_ics;
          ic
      | None -> 0
    in
    let entry = { target; ic; pins = 0; live = true; fresh = true; created_at = now } in
    if g == absent then add_group t (Proc_id.to_int target.Oid.owner) entry
    else insert_at g (-i - 1) entry;
    t.size <- t.size + 1;
    entry
  end

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

let iter t f =
  Array.iter
    (fun g ->
      for i = 0 to g.count - 1 do
        f g.entries.(i)
      done)
    t.groups

let mark_all_dead t = iter t (fun e -> e.live <- false)

let mark_live t target =
  match find t target with Some e -> e.live <- true | None -> ()

let keeps e = e.live || e.fresh || e.pins > 0

let sweep t =
  let dead = ref [] in
  for r = 0 to Array.length t.groups - 1 do
    let g = t.groups.(r) in
    let kept = ref 0 in
    for i = 0 to g.count - 1 do
      let e = g.entries.(i) in
      if keeps e then begin
        (* skip the writes (and the barrier) while nothing has moved *)
        if !kept < i then begin
          g.serials.(!kept) <- g.serials.(i);
          g.entries.(!kept) <- e
        end;
        incr kept
      end
      else begin
        if e.ic > 0 then t.retired_ics <- Oid.Map.add e.target e.ic t.retired_ics;
        dead := e.target :: !dead
      end
    done;
    if !kept < g.count then begin
      t.size <- t.size - (g.count - !kept);
      if !kept = 0 then t.groups.(r) <- absent
      else begin
        (* The array retains nothing removed. *)
        Array.fill g.entries !kept (g.count - !kept) g.entries.(0);
        g.count <- !kept
      end
    end
  done;
  List.rev !dead

(* The serials and ICs of the group's kept entries. *)
let kept_slice g =
  let n = ref 0 in
  for i = 0 to g.count - 1 do
    if keeps g.entries.(i) then incr n
  done;
  let serials = Array.make !n 0 and ics = Array.make !n 0 in
  let j = ref 0 in
  for i = 0 to g.count - 1 do
    let e = g.entries.(i) in
    if keeps e then begin
      serials.(!j) <- g.serials.(i);
      ics.(!j) <- e.ic;
      incr j
    end
  done;
  (serials, ics)

let advertised_to t owner = kept_slice (group t owner)

let iter_advertised t f =
  Array.iteri
    (fun r g ->
      if g != absent then begin
        let ((serials, _) as slice) = kept_slice g in
        if Array.length serials > 0 then f (Proc_id.of_int r) slice
      end)
    t.groups

let advertises t =
  let rec in_group g i = i < g.count && (keeps g.entries.(i) || in_group g (i + 1)) in
  let rec from r = r < Array.length t.groups && (in_group t.groups.(r) 0 || from (r + 1)) in
  from 0

let clear_fresh t = iter t (fun e -> e.fresh <- false)

let entries t =
  (* Owners by rank, each by serial: key order, built back to front so
     no sort or reversal is needed. *)
  let acc = ref [] in
  for r = Array.length t.groups - 1 downto 0 do
    let g = t.groups.(r) in
    for i = g.count - 1 downto 0 do
      acc := g.entries.(i) :: !acc
    done
  done;
  !acc

let size t = t.size
