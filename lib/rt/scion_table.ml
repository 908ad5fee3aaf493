open Adgc_algebra

type entry = {
  key : Ref_key.t;
  mutable ic : int;
  mutable confirmed : bool;
  mutable created_at : int;
  mutable last_invoked : int;
}

(* Everything the owner knows about one holder.  Stub-set processing,
   idle detection and crash reclamation each concern one holder, so
   grouping by holder makes them cost that holder's scions rather than
   the whole table.  The scions sit in an array sorted by target:
   lookups are binary searches, the stub-set pass is one linear walk,
   and a holder's references usually arrive in allocation order, so an
   insertion is usually an append.  An empty holder shares [[||]] and
   the empty set, so it holds no table of its own. *)
type holder = {
  mutable scions : entry array; (* [0, count) strictly ascending target *)
  mutable count : int;
  mutable tombs : Oid.Set.t; (* DCDA-deleted targets, see interface *)
  mutable seqno : int; (* last accepted stub-set seqno; -1 = none *)
  mutable set_time : int; (* last stub-set arrival; [min_int] = never *)
}

type t = {
  owner : Proc_id.t;
  mutable holders : holder option array; (* by holder rank *)
  mutable size : int;
}

let create ~owner = { owner; holders = [||]; size = 0 }

let owner t = t.owner

let holder_opt t src =
  let i = Proc_id.to_int src in
  if i < Array.length t.holders then t.holders.(i) else None

let holder t src =
  let i = Proc_id.to_int src in
  if i >= Array.length t.holders then begin
    let bigger = Array.make (Int.max (i + 1) (2 * Array.length t.holders)) None in
    Array.blit t.holders 0 bigger 0 (Array.length t.holders);
    t.holders <- bigger
  end;
  match t.holders.(i) with
  | Some h -> h
  | None ->
      let h = { scions = [||]; count = 0; tombs = Oid.Set.empty; seqno = -1; set_time = min_int } in
      t.holders.(i) <- Some h;
      h

let iter_holders t f =
  Array.iteri (fun i h -> match h with Some h -> f (Proc_id.of_int i) h | None -> ()) t.holders

(* Index of [target] in the holder's scions, or [-(insertion point) - 1].
   Every argument is passed down, so a search builds no closure. *)
let rec search_between scions target lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let c = Oid.compare target scions.(mid).key.Ref_key.target in
    if c = 0 then mid else if c < 0 then search_between scions target lo mid
    else search_between scions target (mid + 1) hi

let search h target =
  if h.count > 0 && Oid.compare target h.scions.(h.count - 1).key.Ref_key.target > 0 then
    -h.count - 1 (* past the last: the usual append *)
  else search_between h.scions target 0 h.count

let find_in h target =
  let i = search h target in
  if i >= 0 then Some h.scions.(i) else None

let insert_at h i entry =
  if h.count = Array.length h.scions then begin
    let bigger = Array.make (Int.max 4 (2 * h.count)) entry in
    Array.blit h.scions 0 bigger 0 h.count;
    h.scions <- bigger
  end;
  Array.blit h.scions i h.scions (i + 1) (h.count - i);
  h.scions.(i) <- entry;
  h.count <- h.count + 1

(* Keep the scions satisfying [keep], in order, and return the keys of
   the others, ascending.
   Vacated slots are overwritten so the array retains nothing removed. *)
let filter_in_place t h keep =
  let removed = ref [] and kept = ref 0 in
  for i = 0 to h.count - 1 do
    let e = h.scions.(i) in
    if keep e then begin
      (* skip the write (and its barrier) while nothing has moved *)
      if !kept < i then h.scions.(!kept) <- e;
      incr kept
    end
    else removed := e.key :: !removed
  done;
  if !kept = 0 then h.scions <- [||]
  else Array.fill h.scions !kept (h.count - !kept) h.scions.(0);
  t.size <- t.size - (h.count - !kept);
  h.count <- !kept;
  List.rev !removed

let find t key =
  match holder_opt t key.Ref_key.src with Some h -> find_in h key.Ref_key.target | None -> None

let mem t key = Option.is_some (find t key)

let ensure t ~now key =
  if not (Proc_id.equal (Ref_key.owner key) t.owner) then
    invalid_arg
      (Format.asprintf "Scion_table.ensure: %a not owned by %a" Ref_key.pp key Proc_id.pp t.owner);
  if Proc_id.equal key.Ref_key.src t.owner then
    invalid_arg (Format.asprintf "Scion_table.ensure: self-reference %a" Ref_key.pp key);
  let h = holder t key.Ref_key.src in
  let i = search h key.Ref_key.target in
  if i >= 0 then h.scions.(i)
  else begin
    let entry = { key; ic = 0; confirmed = false; created_at = now; last_invoked = now } in
    insert_at h (-i - 1) entry;
    t.size <- t.size + 1;
    entry
  end

let delete ?(tombstone = false) t key =
  if tombstone then begin
    let h = holder t key.Ref_key.src in
    h.tombs <- Oid.Set.add key.Ref_key.target h.tombs
  end;
  match holder_opt t key.Ref_key.src with
  | Some h when search h key.Ref_key.target >= 0 ->
      filter_in_place t h (fun e -> not (Ref_key.equal e.key key)) <> []
  | Some _ | None -> false

let tombstoned t key =
  match holder_opt t key.Ref_key.src with
  | Some h -> Oid.Set.mem key.Ref_key.target h.tombs
  | None -> false

let confirm entry = entry.confirmed <- true

let sync_ic entry stub_ic = if stub_ic > entry.ic then entry.ic <- stub_ic

let observe_invocation t ~now key ~stub_ic =
  match find t key with
  | Some entry ->
      sync_ic entry stub_ic;
      entry.last_invoked <- now
  | None ->
      invalid_arg
        (Format.asprintf "Scion_table.observe_invocation: no scion %a at %a" Ref_key.pp key
           Proc_id.pp t.owner)

let ic t key = Option.map (fun e -> e.ic) (find t key)

let last_seqno t src = match holder_opt t src with Some h -> h.seqno | None -> -1

type apply_result = { deleted : Ref_key.t list; unknown : (Oid.t * int) list; stale : bool }

let apply_new_set ?(grace = max_int) t ~now ~src ~seqno ~targets =
  let h = holder t src in
  (* Even a stale set proves the holder is talking to us. *)
  h.set_time <- now;
  if seqno <= h.seqno then { deleted = []; unknown = []; stale = true }
  else begin
    h.seqno <- seqno;
    (* Confirm listed scions (re-synchronizing their counters) and
       delete confirmed-but-unlisted ones. *)
    let deleted =
      filter_in_place t h (fun entry ->
          match Oid.Map.find_opt entry.key.Ref_key.target targets with
          | Some stub_ic ->
              entry.confirmed <- true;
              sync_ic entry stub_ic;
              true
          | None ->
              (* An unconfirmed scion stays while the holder may not yet
                 have seen the reference (export in flight) — unless it
                 is older than [grace], when the exported reference was
                 lost in transit (see the interface). *)
              (not entry.confirmed) && (grace = max_int || now - entry.created_at <= grace))
    in
    (* Tombstone maintenance: a listed tombstoned key stays dead; an
       unlisted one dissolves. *)
    if not (Oid.Set.is_empty h.tombs) then
      h.tombs <- Oid.Set.filter (fun target -> Oid.Map.mem target targets) h.tombs;
    (* Listed targets with neither a scion nor a tombstone are
       reported back for healing.  No listed scion was deleted above,
       so membership now is membership before. *)
    let unknown =
      Oid.Map.fold
        (fun target ic acc ->
          if search h target >= 0 || Oid.Set.mem target h.tombs then acc else (target, ic) :: acc)
        targets []
      |> List.rev
    in
    { deleted; unknown; stale = false }
  end

let idle_sources t ~now ~threshold =
  let idle = ref [] in
  iter_holders t (fun src h ->
      (* A recent set speaks for every scion of the holder; otherwise
         the silence clock of each scion starts at its creation. *)
      let rec any_silent i =
        i < h.count && (now - h.scions.(i).created_at >= threshold || any_silent (i + 1))
      in
      if (h.set_time = min_int || now - h.set_time >= threshold) && any_silent 0 then
        idle := src :: !idle);
  List.rev !idle

let touch_all_sources t ~now = iter_holders t (fun _ h -> if h.count > 0 then h.set_time <- now)

let protected_targets t =
  (* One sort over every holder's targets; a target several holders
     reference appears once. *)
  let all = ref [] in
  iter_holders t (fun _ h ->
      for i = 0 to h.count - 1 do
        all := h.scions.(i).key.Ref_key.target :: !all
      done);
  Array.to_list (Adgc_util.Sorted.last_of_each Oid.compare (Array.of_list !all))

let entries t =
  (* Holders by rank, each by target: [Ref_key] order, built back to
     front so no sort or reversal is needed. *)
  let acc = ref [] in
  for r = Array.length t.holders - 1 downto 0 do
    match t.holders.(r) with
    | Some h ->
        for i = h.count - 1 downto 0 do
          acc := h.scions.(i) :: !acc
        done
    | None -> ()
  done;
  !acc

let entries_for_target t target =
  let acc = ref [] in
  iter_holders t (fun _ h -> match find_in h target with Some e -> acc := e :: !acc | None -> ());
  List.rev !acc

let delete_from t src =
  match holder_opt t src with None -> [] | Some h -> filter_in_place t h (fun _ -> false)

let drop_for_targets t targets =
  let dropped = ref 0 in
  iter_holders t (fun _ h ->
      let removed = filter_in_place t h (fun e -> not (Oid.Set.mem e.key.Ref_key.target targets)) in
      dropped := !dropped + List.length removed);
  !dropped

let size t = t.size
