(* Model-based property tests: the stub and scion tables are the
   safety-critical bookkeeping of the whole collector, so we check
   them against straightforward purely-functional reference models
   under long random operation sequences. *)

open Adgc_algebra
open Adgc_rt

let check = Alcotest.check

let owner = Proc_id.of_int 0

let oid p serial = Oid.make ~owner:(Proc_id.of_int p) ~serial

(* Small key spaces so operations collide often.  The stub targets
   belong to five owners, two of them ranked far past where the
   table's group array starts, and each owner's serials are first
   met out of order, so groups are created, grown at either end and
   in the middle, and emptied. *)
let stub_owners = [| 1; 2; 3; 9; 40 |]

let stub_targets = Array.init 12 (fun i -> oid stub_owners.(i mod 5) (7 * i mod 11))

let last_stub = Array.length stub_targets - 1

let scion_keys =
  Array.init 6 (fun i -> Ref_key.make ~src:(Proc_id.of_int ((i mod 3) + 1)) ~target:(oid 0 i))

(* ------------------------------------------------------------------ *)
(* Stub table *)

type stub_op =
  | S_ensure of int
  | S_pin of int
  | S_unpin of int
  | S_bump of int
  | S_mark_all_dead
  | S_mark_live of int
  | S_sweep
  | S_clear_fresh

let stub_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> S_ensure i) (int_bound last_stub);
        map (fun i -> S_pin i) (int_bound last_stub);
        map (fun i -> S_unpin i) (int_bound last_stub);
        map (fun i -> S_bump i) (int_bound last_stub);
        return S_mark_all_dead;
        map (fun i -> S_mark_live i) (int_bound last_stub);
        return S_sweep;
        return S_clear_fresh;
      ])

type stub_model_entry = { m_ic : int; m_pins : int; m_live : bool; m_fresh : bool }

type stub_model = { live_entries : stub_model_entry Oid.Map.t; retired : int Oid.Map.t }

(* The model: a map with the documented semantics, written as directly
   as possible.  [retired] models invocation-counter continuity across
   sweep/re-create. *)
let rec stub_model_apply { live_entries = model; retired } op =
  let module M = Oid.Map in
  let get i = M.find_opt stub_targets.(i) model in
  let keep model = { live_entries = model; retired } in
  match op with
  | S_ensure i -> (
      match get i with
      | Some _ -> keep model
      | None ->
          let ic = Option.value ~default:0 (M.find_opt stub_targets.(i) retired) in
          {
            live_entries =
              M.add stub_targets.(i) { m_ic = ic; m_pins = 0; m_live = true; m_fresh = true } model;
            retired = M.remove stub_targets.(i) retired;
          })
  | S_pin i -> (
      let m = stub_model_apply { live_entries = model; retired } (S_ensure i) in
      match M.find_opt stub_targets.(i) m.live_entries with
      | Some e ->
          { m with live_entries = M.add stub_targets.(i) { e with m_pins = e.m_pins + 1 } m.live_entries }
      | None -> m)
  | S_unpin i -> (
      match get i with
      | Some e when e.m_pins > 0 ->
          keep (M.add stub_targets.(i) { e with m_pins = e.m_pins - 1 } model)
      | Some _ | None -> keep model)
  | S_bump i -> (
      match get i with
      | Some e -> keep (M.add stub_targets.(i) { e with m_ic = e.m_ic + 1 } model)
      | None -> keep model)
  | S_mark_all_dead -> keep (M.map (fun e -> { e with m_live = false }) model)
  | S_mark_live i -> (
      match get i with
      | Some e -> keep (M.add stub_targets.(i) { e with m_live = true } model)
      | None -> keep model)
  | S_sweep ->
      let keeps e = e.m_live || e.m_fresh || e.m_pins > 0 in
      let retired =
        M.fold
          (fun target e acc -> if keeps e || e.m_ic = 0 then acc else M.add target e.m_ic acc)
          model retired
      in
      { live_entries = M.filter (fun _ e -> keeps e) model; retired }
  | S_clear_fresh -> keep (M.map (fun e -> { e with m_fresh = false }) model)

let stub_apply table op =
  match op with
  | S_ensure i -> ignore (Stub_table.ensure table ~now:0 stub_targets.(i) : Stub_table.entry)
  | S_pin i -> Stub_table.pin table ~now:0 stub_targets.(i)
  | S_unpin i -> Stub_table.unpin table stub_targets.(i)
  | S_bump i ->
      if Stub_table.mem table stub_targets.(i) then
        ignore (Stub_table.bump_ic table stub_targets.(i) : int)
  | S_mark_all_dead -> Stub_table.mark_all_dead table
  | S_mark_live i -> Stub_table.mark_live table stub_targets.(i)
  | S_sweep -> ignore (Stub_table.sweep table : Oid.t list)
  | S_clear_fresh -> Stub_table.clear_fresh table

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> Oid.compare a b < 0 && strictly_ascending rest
  | [ _ ] | [] -> true

let stub_kept m = m.m_live || m.m_fresh || m.m_pins > 0

(* One owner's share of the next stub-set round, from the model. *)
let model_slice model owner =
  let listed =
    Oid.Map.bindings
      (Oid.Map.filter (fun o m -> Proc_id.equal (Oid.owner o) owner && stub_kept m) model)
  in
  ( Array.of_list (List.map (fun ((o : Oid.t), _) -> o.Oid.serial) listed),
    Array.of_list (List.map (fun (_, m) -> m.m_ic) listed) )

let stub_agrees table { live_entries = model; retired = _ } =
  let same (e : Stub_table.entry) m =
    e.Stub_table.ic = m.m_ic && e.Stub_table.pins = m.m_pins && e.Stub_table.live = m.m_live
    && e.Stub_table.fresh = m.m_fresh
  in
  let entries = Stub_table.entries table in
  let iterated = ref [] in
  Stub_table.iter table (fun e -> iterated := e :: !iterated);
  let targets = List.map (fun (e : Stub_table.entry) -> e.Stub_table.target) in
  let owners = Array.to_list (Array.map Proc_id.of_int stub_owners) in
  let advertised = ref [] in
  Stub_table.iter_advertised table (fun owner slice -> advertised := (owner, slice) :: !advertised);
  List.length entries = Oid.Map.cardinal model
  && Stub_table.size table = Oid.Map.cardinal model
  && strictly_ascending (targets entries)
  && targets (List.rev !iterated) = targets entries
  && List.for_all
       (fun (e : Stub_table.entry) ->
         match Oid.Map.find_opt e.Stub_table.target model with Some m -> same e m | None -> false)
       entries
  && Array.for_all
       (fun target ->
         Stub_table.mem table target = Oid.Map.mem target model
         &&
         match (Stub_table.find table target, Oid.Map.find_opt target model) with
         | Some e, Some m -> Oid.equal e.Stub_table.target target && same e m
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       stub_targets
  && List.for_all (fun owner -> Stub_table.advertised_to table owner = model_slice model owner) owners
  && List.rev !advertised
     = List.filter_map
         (fun owner ->
           let slice = model_slice model owner in
           if Array.length (fst slice) > 0 then Some (owner, slice) else None)
         owners
  && Stub_table.advertises table = Oid.Map.exists (fun _ m -> stub_kept m) model

let prop_stub_table_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"stub table matches its model" ~count:300
       QCheck2.Gen.(list_size (int_bound 120) stub_op_gen)
       (fun ops ->
         let table = Stub_table.create ~owner in
         List.fold_left
           (fun (ok, model) op ->
             (* A sweep returns what the model drops, ascending. *)
             let swept =
               match op with
               | S_sweep -> Some (Stub_table.sweep table)
               | _ ->
                   stub_apply table op;
                   None
             in
             let model' = stub_model_apply model op in
             let dropped =
               Oid.Map.fold
                 (fun o _ acc -> if Oid.Map.mem o model'.live_entries then acc else o :: acc)
                 model.live_entries []
               |> List.rev
             in
             let swept_ok = match swept with Some l -> l = dropped | None -> true in
             (ok && swept_ok && stub_agrees table model', model'))
           (true, { live_entries = Oid.Map.empty; retired = Oid.Map.empty })
           ops
         |> fst))

(* ------------------------------------------------------------------ *)
(* Scion table *)

type scion_op =
  | C_ensure of int
  | C_delete of int * bool (* tombstone? *)
  | C_observe of int * int (* key index, heard stub ic *)
  | C_apply of int * int list (* src index (0..2 -> P1..P3), listed key indexes *)

let scion_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> C_ensure i) (int_bound 5);
        map2 (fun i t -> C_delete (i, t)) (int_bound 5) bool;
        map2 (fun i ic -> C_observe (i, ic)) (int_bound 5) (int_bound 6);
        map2 (fun s listed -> C_apply (s, listed)) (int_bound 2) (list_size (int_bound 4) (int_bound 5));
      ])

type scion_model_entry = { c_ic : int; c_confirmed : bool }

type scion_model = {
  entries : scion_model_entry Ref_key.Map.t;
  seqnos : int Proc_id.Map.t;
  tombs : Ref_key.Set.t;
  mutable next_seqno : int; (* shared counter driving C_apply, mirrors the test driver *)
}

(* Advertised IC in stub sets: keep it simple, always 0 in this model
   (IC sync is covered by unit tests); entries whose IC moved are
   excluded from C_apply targets by the generator using index identity
   only, so equality still holds: apply uses max(ic, 0) = ic. *)
let scion_model_apply model (op, seqno) =
  let key i = scion_keys.(i) in
  match op with
  | C_ensure i ->
      if Ref_key.Map.mem (key i) model.entries then model
      else
        {
          model with
          entries = Ref_key.Map.add (key i) { c_ic = 0; c_confirmed = false } model.entries;
        }
  | C_delete (i, tomb) ->
      {
        model with
        entries = Ref_key.Map.remove (key i) model.entries;
        tombs = (if tomb then Ref_key.Set.add (key i) model.tombs else model.tombs);
      }
  | C_observe (i, ic) -> (
      match Ref_key.Map.find_opt (key i) model.entries with
      | Some e ->
          {
            model with
            entries = Ref_key.Map.add (key i) { e with c_ic = Int.max e.c_ic ic } model.entries;
          }
      | None -> model)
  | C_apply (s, listed) ->
      let src = Proc_id.of_int (s + 1) in
      let last = Option.value ~default:(-1) (Proc_id.Map.find_opt src model.seqnos) in
      if seqno <= last then model
      else begin
        let listed_keys =
          List.filter (fun k -> Proc_id.equal k.Ref_key.src src) (List.map key listed)
        in
        let in_listed k = List.exists (Ref_key.equal k) listed_keys in
        let entries =
          Ref_key.Map.filter_map
            (fun k e ->
              if not (Proc_id.equal k.Ref_key.src src) then Some e
              else if in_listed k then Some { e with c_confirmed = true }
              else if e.c_confirmed then None
              else Some e)
            model.entries
        in
        (* Tombstones: listed ones stay; unlisted dissolve. *)
        let tombs =
          Ref_key.Set.filter
            (fun k -> (not (Proc_id.equal k.Ref_key.src src)) || in_listed k)
            model.tombs
        in
        { model with entries; seqnos = Proc_id.Map.add src seqno model.seqnos; tombs }
      end

let scion_apply table (op, seqno) =
  let key i = scion_keys.(i) in
  match op with
  | C_ensure i -> ignore (Scion_table.ensure table ~now:0 (key i) : Scion_table.entry)
  | C_delete (i, tomb) -> ignore (Scion_table.delete ~tombstone:tomb table (key i) : bool)
  | C_observe (i, ic) ->
      if Scion_table.mem table (key i) then
        Scion_table.observe_invocation table ~now:0 (key i) ~stub_ic:ic
  | C_apply (s, listed) ->
      let src = Proc_id.of_int (s + 1) in
      let targets =
        List.fold_left
          (fun m i ->
            let k = key i in
            if Proc_id.equal k.Ref_key.src src then Oid.Map.add k.Ref_key.target 0 m else m)
          Oid.Map.empty listed
      in
      ignore (Scaffold.apply_set table ~now:0 ~src ~seqno ~targets : Scion_table.apply_result)

let scion_agrees table model =
  let entries = Scion_table.entries table in
  List.length entries = Ref_key.Map.cardinal model.entries
  && List.for_all
       (fun (e : Scion_table.entry) ->
         match Ref_key.Map.find_opt e.Scion_table.key model.entries with
         | Some m -> e.Scion_table.ic = m.c_ic && e.Scion_table.confirmed = m.c_confirmed
         | None -> false)
       entries
  && Ref_key.Set.for_all (fun k -> Scion_table.tombstoned table k) model.tombs
  && List.for_all
       (fun k ->
         Ref_key.Set.mem k model.tombs || not (Scion_table.tombstoned table k))
       (Array.to_list scion_keys)

let prop_scion_table_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"scion table matches its model" ~count:300
       QCheck2.Gen.(list_size (int_bound 120) scion_op_gen)
       (fun ops ->
         let table = Scion_table.create ~owner in
         (* Drive both with monotonically increasing seqnos so stale
            handling is also exercised by occasionally reusing one. *)
         let model =
           ref
             {
               entries = Ref_key.Map.empty;
               seqnos = Proc_id.Map.empty;
               tombs = Ref_key.Set.empty;
               next_seqno = 0;
             }
         in
         List.iteri
           (fun i op ->
             (* Every third C_apply reuses the previous seqno to test
                the stale path. *)
             let seqno =
               match op with
               | C_apply _ when i mod 3 = 0 && !model.next_seqno > 0 -> !model.next_seqno - 1
               | C_apply _ ->
                   !model.next_seqno <- !model.next_seqno + 1;
                   !model.next_seqno
               | _ -> 0
             in
             scion_apply table (op, seqno);
             model := scion_model_apply !model (op, seqno))
           ops;
         scion_agrees table !model))

(* ------------------------------------------------------------------ *)
(* The heap's dense index *)

(* Random heap edits with collisions and sweeps; [H_churn k] allocates
   [k] objects and sweeps them again, and [H_flip (i, k)] has one
   object take and drop [k] references to remote objects never seen
   before, so both interners fill with dead weight and both kinds of
   compaction run.  Indices pick among the live objects (or the swept
   ones, for a dangling reference) modulo their count.  Remote targets
   belong to process 1; one in three has a stub. *)
type heap_op =
  | H_alloc
  | H_ref_local of int * int
  | H_ref_dangling of int * int
  | H_ref_remote of int * int
  | H_unref of int * int
  | H_remove of int
  | H_root of int
  | H_unroot of int
  | H_scion of int
  | H_churn of int
  | H_flip of int * int

let heap_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, return H_alloc);
        (6, map2 (fun i j -> H_ref_local (i, j)) nat nat);
        (1, map2 (fun i j -> H_ref_dangling (i, j)) nat nat);
        (4, map2 (fun i k -> H_ref_remote (i, k)) nat (int_bound 199));
        (4, map2 (fun i j -> H_unref (i, j)) nat nat);
        (4, map (fun i -> H_remove i) nat);
        (2, map (fun i -> H_root i) nat);
        (1, map (fun i -> H_unroot i) nat);
        (2, map (fun i -> H_scion i) nat);
        (1, map (fun k -> H_churn k) (int_range 1 80));
        (1, map2 (fun i k -> H_flip (i, k)) nat (int_range 1 80));
      ])

let pick l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

let heap_apply (p : Process.t) swept fresh op =
  let heap = p.Process.heap in
  let live () = List.rev (Heap.fold heap ~init:[] ~f:(fun acc o -> o :: acc)) in
  let with_live i f = Option.iter f (pick (live ()) i) in
  match op with
  | H_alloc -> ignore (Heap.alloc heap : Heap.obj)
  | H_ref_local (i, j) ->
      with_live i (fun o -> with_live j (fun t -> ignore (Heap.add_ref heap o t.Heap.oid : int)))
  | H_ref_dangling (i, j) ->
      with_live i (fun o -> Option.iter (fun t -> ignore (Heap.add_ref heap o t : int)) (pick !swept j))
  | H_ref_remote (i, k) ->
      with_live i (fun o ->
          let target = oid 1 k in
          if k mod 3 = 0 then ignore (Stub_table.ensure p.Process.stubs ~now:0 target : Stub_table.entry);
          ignore (Heap.add_ref heap o target : int))
  | H_unref (i, j) ->
      with_live i (fun o ->
          let held = List.filter_map Fun.id (Array.to_list o.Heap.fields) in
          Option.iter (fun t -> ignore (Heap.remove_ref heap o t : bool)) (pick held j))
  | H_remove i ->
      with_live i (fun o ->
          Heap.remove heap o.Heap.oid;
          swept := o.Heap.oid :: !swept)
  | H_root i -> with_live i (fun o -> Heap.add_root heap o.Heap.oid)
  | H_unroot i -> Option.iter (Heap.remove_root heap) (pick (Heap.roots heap) i)
  | H_scion i ->
      with_live i (fun o ->
          ignore
            (Scion_table.ensure p.Process.scions ~now:0
               (Ref_key.make ~src:(Proc_id.of_int 1) ~target:o.Heap.oid)
              : Scion_table.entry))
  | H_churn k ->
      let objs = List.init k (fun _ -> Heap.alloc heap) in
      List.iter
        (fun (o : Heap.obj) ->
          Heap.remove heap o.Heap.oid;
          swept := o.Heap.oid :: !swept)
        objs
  | H_flip (i, k) ->
      with_live i (fun o ->
          for _ = 1 to k do
            incr fresh;
            let target = oid 1 !fresh in
            ignore (Heap.add_ref heap o target : int);
            ignore (Heap.remove_ref heap o target : bool)
          done)

(* The index as a rebuild from the objects would give it: every live
   object has its own id and reads back through [dense_oid] and
   [iter_dense], no swept object has one, each adjacency row is the
   object's fields (live local targets by id, remote ones by remote
   id, dangling ones at ids no live object has), and a trace from the
   roots reaches what a plain walk of the fields reaches.  Then the
   summary over this index is the reference's, bytes and view. *)
let index_agrees (p : Process.t) swept =
  let heap = p.Process.heap in
  let n = Heap.dense_sync heap in
  let live = Heap.fold heap ~init:Oid.Map.empty ~f:(fun m o -> Oid.Map.add o.Heap.oid o m) in
  let id_of = Oid.Map.map (fun (o : Heap.obj) -> Heap.dense_id heap o.Heap.oid) live in
  let oid_at = Hashtbl.create 16 in
  let ids_ok =
    Oid.Map.for_all
      (fun o id ->
        match id with
        | Some id when id >= 0 && id < n && not (Hashtbl.mem oid_at id) ->
            Hashtbl.add oid_at id o;
            Oid.equal (Heap.dense_oid heap id) o
        | Some _ | None -> false)
      id_of
  in
  let swept_ok = List.for_all (fun o -> Heap.dense_id heap o = None) swept in
  let listed = ref [] in
  Heap.iter_dense heap (fun id o -> listed := (id, o.Heap.oid) :: !listed);
  let expected =
    List.sort compare (Oid.Map.fold (fun o id acc -> (Option.get id, o) :: acc) id_of [])
  in
  let iter_ok = List.rev !listed = expected in
  let field_key = function
    | t when not (Proc_id.equal (Oid.owner t) owner) -> `Remote (Heap.remote_id heap t)
    | t when Oid.Map.mem t live -> `Local (Some t)
    | _ -> `Local None
  in
  let edge_key v =
    if v >= 0 then `Local (Hashtbl.find_opt oid_at v)
    else if -v - 1 < Heap.remote_ids heap then `Remote (Some (-v - 1))
    else `Remote None
  in
  let edges_ok =
    Oid.Map.for_all
      (fun o (obj : Heap.obj) ->
        let row = ref [] in
        Heap.iter_edges heap (Option.get (Oid.Map.find o id_of)) (fun v -> row := edge_key v :: !row);
        let fields = List.filter_map (Option.map field_key) (Array.to_list obj.Heap.fields) in
        List.for_all (function `Remote None -> false | _ -> true) fields
        && List.sort compare !row = List.sort compare fields)
      live
  in
  let rec walk seen remote = function
    | [] -> (seen, remote)
    | t :: rest when not (Proc_id.equal (Oid.owner t) owner) -> walk seen (Oid.Set.add t remote) rest
    | t :: rest -> (
        match Oid.Map.find_opt t live with
        | Some obj when not (Oid.Set.mem t seen) ->
            walk (Oid.Set.add t seen) remote
              (List.filter_map Fun.id (Array.to_list obj.Heap.fields) @ rest)
        | Some _ | None -> walk seen remote rest)
  in
  let want_local, want_remote = walk Oid.Set.empty Oid.Set.empty (Heap.roots heap) in
  let got_local = ref Oid.Set.empty and got_remote = ref Oid.Set.empty in
  Heap.trace_dense heap ~from:(Heap.roots heap)
    ~visit_local:(fun id -> got_local := Oid.Set.add (Heap.dense_oid heap id) !got_local)
    ~visit_remote:(fun o -> got_remote := Oid.Set.add o !got_remote);
  let trace_ok = Oid.Set.equal !got_local want_local && Oid.Set.equal !got_remote want_remote in
  let reference = Summary_reference.summary ~now:3 p in
  let written = Adgc_snapshot.Summarize.run ~now:3 p in
  ids_ok && swept_ok && iter_ok && edges_ok && trace_ok
  && String.equal (Adgc_snapshot.Summary.bytes written) (Summary_reference.encode reference)
  && Summary_reference.equal (Summary_reference.of_view written) reference

let prop_heap_index_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"heap dense index = a rebuild, and its summary = the reference's"
       ~count:60
       QCheck2.Gen.(list_size (int_range 20 150) heap_op_gen)
       (fun ops ->
         let cluster = Cluster.create ~n:2 () in
         let p = Cluster.proc cluster 0 in
         let swept = ref [] and fresh = ref 1_000 in
         (* A first churn, so every sequence compacts at least once. *)
         List.for_all
           (fun op ->
             heap_apply p swept fresh op;
             index_agrees p !swept)
           (H_alloc :: H_alloc :: H_churn 100 :: ops)
         && Heap.dense_generation p.Process.heap > 0))

(* IC sync through C_apply: focused unit check complementing the model
   (the model fixes advertised ICs at 0). *)
let test_apply_syncs_ic () =
  let table = Scion_table.create ~owner in
  let key = scion_keys.(0) in
  ignore (Scion_table.ensure table ~now:0 key);
  let serial = key.Ref_key.target.Oid.serial in
  ignore
    (Scion_table.apply_new_set table ~now:0 ~src:key.Ref_key.src ~seqno:0 ~serials:[| serial |]
       ~ics:[| 7 |]);
  check (Alcotest.option Alcotest.int) "raised to stub ic" (Some 7) (Scion_table.ic table key);
  (* Never lowered. *)
  ignore
    (Scion_table.apply_new_set table ~now:0 ~src:key.Ref_key.src ~seqno:1 ~serials:[| serial |]
       ~ics:[| 3 |]);
  check (Alcotest.option Alcotest.int) "not lowered" (Some 7) (Scion_table.ic table key)

let suite =
  ( "model",
    [
      prop_stub_table_model;
      prop_scion_table_model;
      prop_heap_index_model;
      Alcotest.test_case "apply_new_set syncs ICs" `Quick test_apply_syncs_ic;
    ] )
