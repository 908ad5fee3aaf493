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
      Alcotest.test_case "apply_new_set syncs ICs" `Quick test_apply_syncs_ic;
    ] )
