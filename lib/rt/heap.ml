open Adgc_algebra
module Mark = Adgc_util.Dense.Mark
module Csr = Adgc_util.Dense.Csr
module Interner = Adgc_util.Dense.Interner (Oid)

type obj = { oid : Oid.t; mutable fields : Oid.t option array; mutable payload : int }

(* Persistent dense-trace state.  The interner assigns each local
   object a dense id; [slots] maps ids back to the live object (or
   [None] once swept).  The whole record survives across traces so
   consecutive snapshots pay no allocation: the visited set is an
   epoch-marked bitset and the BFS queue a reused int array.  It is
   resynchronized lazily when the heap's generation counter says the
   object population changed. *)
type tracer = {
  mutable ids : Interner.t; (* local oid -> dense id *)
  mutable slots : obj option array; (* dense id -> live object *)
  mark : Mark.t; (* visited set over dense ids *)
  mutable queue : int array; (* BFS scratch, reused *)
  remote_ids : Interner.t; (* remote oid -> dense id (dedup only) *)
  remote_mark : Mark.t;
  adj : Csr.t;
      (* int-packed adjacency mirror of the field arrays, by dense id:
         local targets as their dense id, remote targets as
         [-(remote id) - 1].  Maintained incrementally by the mutators
         so the BFS walks flat int blocks instead of boxed option
         arrays — at millions of objects that is the difference
         between an allocation-free walk and a cache-missing one. *)
  mutable synced_gen : int; (* heap generation at last sync; -1 = never *)
  mutable rebuilds : int;
      (* bumped each time the interner is rebuilt: every dense id is
         reassigned then, so anything caching per-id state (the
         cluster's live-mark cache) keys its validity on this *)
}

type t = {
  owner : Proc_id.t;
  objs : obj Oid.Tbl.t;
  root_set : unit Oid.Tbl.t;
  mutable next_serial : int;
  mutable generation : int; (* bumped whenever the object population changes *)
  mutable mutations : int; (* bumped on every reachability-relevant change *)
  mutable reclaim_mutations : int; (* bumped only by classes after which garbage can shrink *)
  mutable removals : int;
      (* bumped only by [remove]: the one mutation class that cannot
         {e grow} reachability, so the globally-live set is unchanged
         by it (unless the removal itself was the safety violation) *)
  tracer : tracer;
}

let create ~owner =
  {
    owner;
    objs = Oid.Tbl.create 64;
    root_set = Oid.Tbl.create 8;
    next_serial = 0;
    generation = 0;
    mutations = 0;
    reclaim_mutations = 0;
    removals = 0;
    tracer =
      {
        ids = Interner.create ();
        slots = Array.make 64 None;
        mark = Mark.create ();
        queue = Array.make 64 0;
        remote_ids = Interner.create ();
        remote_mark = Mark.create ();
        adj = Csr.create ();
        synced_gen = -1;
        rebuilds = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Incremental adjacency maintenance.  Dense ids are append-only
   between interner rebuilds, so the mutators can intern on demand and
   update the packed mirror in place; [sync_tracer] rebuilds the
   mirror wholesale only when it replaces the interner (compaction). *)

(* Ids interned outside a sync can outrun [slots]/[queue]; grow them
   here so the trace path may index unconditionally.  Stale content is
   harmless — the next sync rewrites [0, n). *)
let ensure_dense_capacity tr =
  let n = Interner.size tr.ids in
  if Array.length tr.slots < n then begin
    let cap = ref (Int.max 64 (Array.length tr.slots)) in
    while n > !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap None in
    Array.blit tr.slots 0 bigger 0 (Array.length tr.slots);
    tr.slots <- bigger
  end;
  if Array.length tr.queue < Array.length tr.slots then
    tr.queue <- Array.make (Array.length tr.slots) 0

let intern_local tr oid =
  let id = Interner.intern tr.ids oid in
  ensure_dense_capacity tr;
  id

let pack_target t tr oid =
  if Proc_id.equal (Oid.owner oid) t.owner then intern_local tr oid
  else -(Interner.intern tr.remote_ids oid) - 1

let adj_add t holder target =
  let tr = t.tracer in
  Csr.add tr.adj (intern_local tr holder) (pack_target t tr target)

let adj_remove t holder target =
  let tr = t.tracer in
  match Interner.find tr.ids holder with
  | None -> ()
  | Some hid -> ignore (Csr.remove tr.adj hid (pack_target t tr target) : bool)

let adj_clear t oid =
  let tr = t.tracer in
  match Interner.find tr.ids oid with None -> () | Some id -> Csr.clear_row tr.adj id

let owner t = t.owner

let size t = Oid.Tbl.length t.objs

let generation t = t.generation

let mutations t = t.mutations

let reclaim_mutations t = t.reclaim_mutations

(* Mutations that can change the globally-live set: everything except
   removals.  A (safe) sweep only deletes garbage, which by definition
   is outside the live set — so while this counter stands still the
   cluster's cached live marks remain exact, sweeps or not. *)
let live_mutations t = t.mutations - t.removals

let alloc ?(fields = 2) ?(payload = 16) t =
  let oid = Oid.make ~owner:t.owner ~serial:t.next_serial in
  t.next_serial <- t.next_serial + 1;
  let obj = { oid; fields = Array.make fields None; payload } in
  Oid.Tbl.add t.objs oid obj;
  t.generation <- t.generation + 1;
  t.mutations <- t.mutations + 1;
  obj

let get t oid = Oid.Tbl.find_opt t.objs oid

let get_exn t oid =
  match get t oid with
  | Some obj -> obj
  | None -> invalid_arg (Format.asprintf "Heap.get_exn: %a not in heap of %a" Oid.pp oid Proc_id.pp t.owner)

let mem t oid = Oid.Tbl.mem t.objs oid

let set_field t obj i v =
  if i < 0 || i >= Array.length obj.fields then
    invalid_arg (Format.asprintf "Heap.set_field: slot %d out of range for %a" i Oid.pp obj.oid);
  let old = obj.fields.(i) in
  obj.fields.(i) <- v;
  t.mutations <- t.mutations + 1;
  if v <> None then t.reclaim_mutations <- t.reclaim_mutations + 1;
  (match old with Some o -> adj_remove t obj.oid o | None -> ());
  match v with Some o -> adj_add t obj.oid o | None -> ()

let add_ref t obj oid =
  t.mutations <- t.mutations + 1;
  t.reclaim_mutations <- t.reclaim_mutations + 1;
  let n = Array.length obj.fields in
  let rec find_empty i = if i >= n then None else if obj.fields.(i) = None then Some i else find_empty (i + 1) in
  let slot =
    match find_empty 0 with
    | Some i ->
        obj.fields.(i) <- Some oid;
        i
    | None ->
        let bigger = Array.make (Int.max 2 (2 * n)) None in
        Array.blit obj.fields 0 bigger 0 n;
        obj.fields <- bigger;
        obj.fields.(n) <- Some oid;
        n
  in
  adj_add t obj.oid oid;
  slot

let remove_ref t obj oid =
  t.mutations <- t.mutations + 1;
  let n = Array.length obj.fields in
  let rec go i =
    if i >= n then false
    else
      match obj.fields.(i) with
      | Some o when Oid.equal o oid ->
          obj.fields.(i) <- None;
          true
      | Some _ | None -> go (i + 1)
  in
  let found = go 0 in
  if found then adj_remove t obj.oid oid;
  found

let remove t oid =
  if Oid.Tbl.mem t.objs oid then begin
    Oid.Tbl.remove t.objs oid;
    adj_clear t oid;
    t.generation <- t.generation + 1;
    t.mutations <- t.mutations + 1;
    t.reclaim_mutations <- t.reclaim_mutations + 1;
    t.removals <- t.removals + 1
  end

let add_root t oid =
  if not (Proc_id.equal (Oid.owner oid) t.owner) then
    invalid_arg (Format.asprintf "Heap.add_root: %a is not local to %a" Oid.pp oid Proc_id.pp t.owner);
  Oid.Tbl.replace t.root_set oid ();
  t.mutations <- t.mutations + 1;
  t.reclaim_mutations <- t.reclaim_mutations + 1

let remove_root t oid =
  Oid.Tbl.remove t.root_set oid;
  t.mutations <- t.mutations + 1

let is_root t oid = Oid.Tbl.mem t.root_set oid

let roots t = Oid.Tbl.fold (fun oid () acc -> oid :: acc) t.root_set [] |> List.sort Oid.compare

let iter t f = Oid.Tbl.iter (fun _ obj -> f obj) t.objs

let fold t ~init ~f = Oid.Tbl.fold (fun _ obj acc -> f acc obj) t.objs init

(* ------------------------------------------------------------------ *)
(* Dense tracing *)

(* Bring the tracer in line with the current object population.  Noop
   (one int comparison) while the generation is unchanged, so back-to-
   back snapshots of a quiet heap reuse everything.  After mutation it
   re-interns the population and refreshes the id -> object slots; the
   interner is rebuilt from scratch only when sweeps have left it
   mostly dead weight (ids are append-only, so without compaction a
   churning heap would grow its arrays forever). *)
let sync_tracer t =
  let tr = t.tracer in
  if tr.synced_gen <> t.generation then begin
    let live = Oid.Tbl.length t.objs in
    let rebuilt = Interner.size tr.ids > (2 * live) + 64 in
    if rebuilt then begin
      tr.ids <- Interner.create ~capacity:(2 * live) ();
      tr.rebuilds <- tr.rebuilds + 1
    end;
    Oid.Tbl.iter (fun oid _ -> ignore (Interner.intern tr.ids oid : int)) t.objs;
    let n = Interner.size tr.ids in
    if Array.length tr.slots < n then begin
      let cap = ref (Int.max 64 (Array.length tr.slots)) in
      while n > !cap do
        cap := 2 * !cap
      done;
      tr.slots <- Array.make !cap None
    end;
    for i = 0 to n - 1 do
      tr.slots.(i) <- Oid.Tbl.find_opt t.objs (Interner.key tr.ids i)
    done;
    if Array.length tr.queue < n then tr.queue <- Array.make (Array.length tr.slots) 0;
    if rebuilt then begin
      (* The interner was replaced, so every dense id changed and the
         adjacency mirror keyed by the old ids is meaningless —
         rebuild it from the authoritative field arrays. *)
      Csr.reset tr.adj;
      Oid.Tbl.iter
        (fun oid obj ->
          match Interner.find tr.ids oid with
          | None -> ()
          | Some hid ->
              Array.iter
                (function None -> () | Some target -> Csr.add tr.adj hid (pack_target t tr target))
                obj.fields)
        t.objs
    end;
    tr.synced_gen <- t.generation
  end;
  tr

let dense_sync t =
  let tr = sync_tracer t in
  Interner.size tr.ids

let dense_generation t = t.tracer.rebuilds

(* Words held by the dense-trace machinery (arrays + packed adjacency)
   — the bench's peak-memory proxy, counted without forcing a sync so
   sampling it is free. *)
let dense_words t =
  let tr = t.tracer in
  Array.length tr.slots + Array.length tr.queue + Csr.words tr.adj + Mark.capacity tr.mark
  + Mark.capacity tr.remote_mark

let dense_id t oid =
  let tr = sync_tracer t in
  match Interner.find tr.ids oid with
  | Some id when tr.slots.(id) <> None -> Some id
  | Some _ | None -> None

let dense_oid t id =
  let tr = sync_tracer t in
  Interner.key tr.ids id

let dense_obj t id =
  let tr = sync_tracer t in
  if id < 0 || id >= Interner.size tr.ids then None else tr.slots.(id)

let iter_dense t f =
  let tr = sync_tracer t in
  for id = 0 to Interner.size tr.ids - 1 do
    match tr.slots.(id) with None -> () | Some obj -> f id obj
  done

type trace_result = { local : Oid.Set.t; remote : Oid.Set.t }

let trace_dense ?(reset = true) t ~from ~visit_local ~visit_remote =
  let tr = sync_tracer t in
  if reset then begin
    Mark.clear tr.mark;
    Mark.clear tr.remote_mark
  end;
  let tail = ref 0 in
  let push id =
    (* dangling or never-allocated local ids have a [None] slot *)
    if tr.slots.(id) <> None && Mark.mark tr.mark id then begin
      tr.queue.(!tail) <- id;
      incr tail
    end
  in
  (* The walk itself never touches an [Oid.t]: edges come out of the
     packed adjacency rows (local dense id, or [-(remote id) - 1]),
     so the hot loop is int reads plus bitset marks. *)
  let visit_packed v =
    if v >= 0 then push v
    else begin
      let rid = -v - 1 in
      if Mark.mark tr.remote_mark rid then visit_remote (Interner.key tr.remote_ids rid)
    end
  in
  let visit_seed oid =
    if Proc_id.equal (Oid.owner oid) t.owner then (
      match Interner.find tr.ids oid with Some id -> push id | None -> ())
    else begin
      let rid = Interner.intern tr.remote_ids oid in
      if Mark.mark tr.remote_mark rid then visit_remote oid
    end
  in
  List.iter visit_seed from;
  let head = ref 0 in
  while !head < !tail do
    let id = tr.queue.(!head) in
    incr head;
    Csr.iter tr.adj id visit_packed
  done;
  for i = 0 to !tail - 1 do
    visit_local tr.queue.(i)
  done

let trace t ~from =
  let tr = t.tracer in
  let local = ref Oid.Set.empty in
  let remote = ref Oid.Set.empty in
  trace_dense t ~from
    ~visit_local:(fun id -> local := Oid.Set.add (Interner.key tr.ids id) !local)
    ~visit_remote:(fun oid -> remote := Oid.Set.add oid !remote);
  { local = !local; remote = !remote }

let trace_all_remote t ~from = (trace t ~from).remote
