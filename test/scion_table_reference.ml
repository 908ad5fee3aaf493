(* Reference scion table: the owner-wide implementation the runtime
   used before scions were grouped per holder, kept as an independent
   check on [Adgc_rt.Scion_table].  Every holder's scions live in one
   hash table, so stub-set processing, idle detection and crash
   reclamation scan the whole table; the property test in
   [Test_rt_core] drives both with the same operations and compares
   everything observable.  A stub set reaches [apply_new_set] as the
   map from target to IC it once travelled as, and is applied by
   lookups in that map, not by the runtime's merge walk over sorted
   arrays.  Shares no code with the runtime table. *)

open Adgc_algebra

type entry = {
  key : Ref_key.t;
  mutable ic : int;
  mutable confirmed : bool;
  mutable created_at : int;
  mutable last_invoked : int;
}

type t = {
  owner : Proc_id.t;
  entries : entry Ref_key.Tbl.t;
  seqnos : (int, int) Hashtbl.t; (* holder proc -> last accepted seqno *)
  set_times : (int, int) Hashtbl.t; (* holder proc -> last stub-set arrival time *)
  tombstones : unit Ref_key.Tbl.t; (* DCDA-deleted keys, see interface *)
}

let create ~owner =
  {
    owner;
    entries = Ref_key.Tbl.create 32;
    seqnos = Hashtbl.create 8;
    set_times = Hashtbl.create 8;
    tombstones = Ref_key.Tbl.create 4;
  }

let owner t = t.owner

let find t key = Ref_key.Tbl.find_opt t.entries key

let mem t key = Ref_key.Tbl.mem t.entries key

let ensure t ~now key =
  if not (Proc_id.equal (Ref_key.owner key) t.owner) then
    invalid_arg
      (Format.asprintf "Scion_table.ensure: %a not owned by %a" Ref_key.pp key Proc_id.pp t.owner);
  if Proc_id.equal key.Ref_key.src t.owner then
    invalid_arg (Format.asprintf "Scion_table.ensure: self-reference %a" Ref_key.pp key);
  match find t key with
  | Some entry -> entry
  | None ->
      let entry = { key; ic = 0; confirmed = false; created_at = now; last_invoked = now } in
      Ref_key.Tbl.add t.entries key entry;
      entry

let delete ?(tombstone = false) t key =
  if tombstone then Ref_key.Tbl.replace t.tombstones key ();
  if mem t key then begin
    Ref_key.Tbl.remove t.entries key;
    true
  end
  else false

let tombstoned t key = Ref_key.Tbl.mem t.tombstones key

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

let last_seqno t src =
  match Hashtbl.find_opt t.seqnos (Proc_id.to_int src) with Some s -> s | None -> -1

type apply_result = { deleted : Ref_key.t list; unknown : (Oid.t * int) list; stale : bool }

let apply_new_set ?(grace = max_int) t ~now ~src ~seqno ~targets =
  (* Even a stale set proves the holder is talking to us. *)
  Hashtbl.replace t.set_times (Proc_id.to_int src) now;
  if seqno <= last_seqno t src then { deleted = []; unknown = []; stale = true }
  else begin
    Hashtbl.replace t.seqnos (Proc_id.to_int src) seqno;
    (* Confirm listed scions (re-synchronizing their counters), delete
       confirmed-but-unlisted ones, and report listed targets we have
       no scion for. *)
    let deleted = ref [] in
    let known = ref Oid.Set.empty in
    Ref_key.Tbl.iter
      (fun key entry ->
        if Proc_id.equal key.Ref_key.src src then begin
          let target = key.Ref_key.target in
          match Oid.Map.find_opt target targets with
          | Some stub_ic ->
              known := Oid.Set.add target !known;
              entry.confirmed <- true;
              sync_ic entry stub_ic
          | None ->
              if entry.confirmed then deleted := key :: !deleted
              else if grace <> max_int && now - entry.created_at > grace then
                (* Unconfirmed, unlisted, and old: the exported
                   reference was lost in transit (see the interface). *)
                deleted := key :: !deleted
              (* Otherwise unconfirmed and unlisted: the holder has not
                 yet seen the reference (export in flight); keep the
                 scion. *)
        end)
      t.entries;
    List.iter (fun key -> ignore (delete t key)) !deleted;
    (* Tombstone maintenance: a listed tombstoned key stays dead (and
       is not reported as unknown); an unlisted one dissolves. *)
    let tomb_known = ref Oid.Set.empty in
    let dissolved = ref [] in
    Ref_key.Tbl.iter
      (fun key () ->
        if Proc_id.equal key.Ref_key.src src then
          if Oid.Map.mem key.Ref_key.target targets then
            tomb_known := Oid.Set.add key.Ref_key.target !tomb_known
          else dissolved := key :: !dissolved)
      t.tombstones;
    List.iter (Ref_key.Tbl.remove t.tombstones) !dissolved;
    let unknown =
      Oid.Map.fold
        (fun target ic acc ->
          if Oid.Set.mem target !known || Oid.Set.mem target !tomb_known then acc
          else (target, ic) :: acc)
        targets []
      |> List.rev
    in
    { deleted = List.rev !deleted; unknown; stale = false }
  end

let idle_sources t ~now ~threshold =
  let sources =
    Ref_key.Tbl.fold
      (fun key entry acc ->
        let src = Proc_id.to_int key.Ref_key.src in
        let last =
          match Hashtbl.find_opt t.set_times src with
          | Some time -> Int.max time entry.created_at
          | None -> entry.created_at
        in
        if now - last >= threshold then Proc_id.Set.add key.Ref_key.src acc else acc)
      t.entries Proc_id.Set.empty
  in
  Proc_id.Set.elements sources

let touch_all_sources t ~now =
  Ref_key.Tbl.iter
    (fun key _ -> Hashtbl.replace t.set_times (Proc_id.to_int key.Ref_key.src) now)
    t.entries

let protected_targets t =
  Ref_key.Tbl.fold (fun key _ acc -> Oid.Set.add key.Ref_key.target acc) t.entries Oid.Set.empty
  |> Oid.Set.elements

let entries t =
  Ref_key.Tbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> Ref_key.compare a.key b.key)

let delete_from t src =
  let doomed =
    Ref_key.Tbl.fold
      (fun key _ acc -> if Proc_id.equal key.Ref_key.src src then key :: acc else acc)
      t.entries []
  in
  List.iter (fun key -> ignore (delete t key)) doomed;
  List.sort Ref_key.compare doomed

let size t = Ref_key.Tbl.length t.entries
