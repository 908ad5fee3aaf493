(* Tests for identifiers and the CDM algebra, including a step-by-step
   replay of the paper's Section 3 worked examples (Fig. 3 simple
   cycle, Fig. 4 mutually-linked cycles, §3.2 invocation-counter
   race). *)

open Adgc_algebra

let check = Alcotest.check

(* Terse builders: [oid p serial], [rkey src (oid)] *)
let oid p serial = Oid.make ~owner:(Proc_id.of_int p) ~serial

let rkey src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

(* A distributed garbage cycle is proven: matching leaves both sets
   empty (paper step 25-26, [{{} -> {}}]). *)
let cycle_found a = Algebra.verdict a = Algebra.Counts { unresolved = 0; frontier = 0 }

(* Objects of the paper's Fig. 3 (process numbers 1-based as in the
   paper; serial numbers arbitrary but fixed). *)
let f_p2 = oid 2 0 (* F in P2 *)

let q_p4 = oid 4 0

let o_p3 = oid 3 0

let d_p1 = oid 1 0

(* The references of the cycle, named by the paper's convention: the
   entry "F_P2" is the reference from P1's stub to F. *)
let ref_f = rkey 1 f_p2

let ref_q = rkey 2 q_p4

let ref_o = rkey 4 o_p3

let ref_d = rkey 3 d_p1

let add side alg (key, ic) = Algebra.add_exn alg side key ~ic

let source_of = List.fold_left (add Algebra.Source) Algebra.empty

let alg_of srcs tgts =
  List.fold_left (add Algebra.Target) (source_of srcs) tgts

let keys l = List.map fst l

(* An algebra is its run, written canonically, so two are equal when
   their runs are. *)
let run = Adgc_serial.Net_codec.encode_shape Algebra.emit_entries

let equal a b = String.equal (run a) (run b)

let refkey = Alcotest.testable Ref_key.pp Ref_key.equal

type match_parts = { unresolved : (Ref_key.t * int) list; frontier : (Ref_key.t * int) list }

let match_exn alg =
  match Algebra.matching alg with
  | Algebra.Match { unresolved; frontier } -> { unresolved; frontier }
  | Algebra.Ic_abort _ -> Alcotest.fail "unexpected IC abort"

(* ------------------------------------------------------------------ *)
(* Identifier basics *)

let test_proc_id () =
  check Alcotest.int "roundtrip" 7 (Proc_id.to_int (Proc_id.of_int 7));
  check Alcotest.bool "equal" true (Proc_id.equal (Proc_id.of_int 3) (Proc_id.of_int 3));
  check Alcotest.string "pp" "P3" (Proc_id.to_string (Proc_id.of_int 3));
  Alcotest.check_raises "negative" (Invalid_argument "Proc_id.of_int: negative") (fun () ->
      ignore (Proc_id.of_int (-1)))

let test_oid_ordering () =
  let a = oid 1 5 and b = oid 1 6 and c = oid 2 0 in
  check Alcotest.bool "serial order" true (Oid.compare a b < 0);
  check Alcotest.bool "owner dominates" true (Oid.compare b c < 0);
  check Alcotest.bool "equal" true (Oid.equal a (oid 1 5))

let test_ref_key_ordering () =
  let a = rkey 1 (oid 2 0) and b = rkey 1 (oid 2 1) and c = rkey 2 (oid 1 0) in
  check Alcotest.bool "target order" true (Ref_key.compare a b < 0);
  check Alcotest.bool "src dominates" true (Ref_key.compare b c < 0);
  check Alcotest.string "owner" "P2" (Proc_id.to_string (Ref_key.owner a))

let test_detection_id () =
  let a = Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:3 in
  let b = Detection_id.make ~initiator:(Proc_id.of_int 1) ~seq:4 in
  check Alcotest.bool "ordered by seq" true (Detection_id.compare a b < 0);
  check Alcotest.string "pp" "D3@P1" (Detection_id.to_string a)

(* ------------------------------------------------------------------ *)
(* Algebra construction *)

let test_add_dedupe () =
  let alg = source_of [ (ref_f, 3); (ref_f, 3) ] in
  check Alcotest.int "one entry" 1 (fst (Algebra.cardinal alg))

let test_add_conflict () =
  let alg = source_of [ (ref_f, 3) ] in
  match Algebra.add alg Algebra.Source ref_f ~ic:4 with
  | Algebra.Ic_conflict { existing = 3; incoming = 4; _ } -> ()
  | Algebra.Ic_conflict _ -> Alcotest.fail "wrong conflict values"
  | Algebra.Added _ -> Alcotest.fail "expected conflict"

let test_sides_independent () =
  (* The same key may appear on both sides (that is how cancellation
     works); only same-side duplicates with different ICs conflict. *)
  let alg = alg_of [ (ref_f, 3) ] [ (ref_f, 3) ] in
  check (Alcotest.pair Alcotest.int Alcotest.int) "one each" (1, 1) (Algebra.cardinal alg)

let test_mem_and_ic () =
  let alg = alg_of [ (ref_f, 3) ] [ (ref_q, 1) ] in
  check Alcotest.bool "mem source" true ((Algebra.ic alg Algebra.Source ref_f <> None));
  check Alcotest.bool "not in target" false ((Algebra.ic alg Algebra.Target ref_f <> None));
  check (Alcotest.option Alcotest.int) "ic" (Some 1) (Algebra.ic alg Algebra.Target ref_q)

let test_equal () =
  let a = alg_of [ (ref_f, 0) ] [ (ref_q, 0) ] in
  let b = alg_of [ (ref_f, 0) ] [ (ref_q, 0) ] in
  let c = alg_of [ (ref_f, 1) ] [ (ref_q, 0) ] in
  check Alcotest.bool "equal" true (equal a b);
  check Alcotest.bool "ic matters" false (equal a c)

(* ------------------------------------------------------------------ *)
(* Matching semantics *)

let test_matching_empty () =
  match match_exn Algebra.empty with
  | { unresolved = []; frontier = [] } -> ()
  | _ -> Alcotest.fail "empty should match empty"

let test_matching_disjoint () =
  let alg = alg_of [ (ref_f, 0) ] [ (ref_q, 0) ] in
  let m = match_exn alg in
  check (Alcotest.list refkey) "unresolved" [ ref_f ] (keys m.unresolved);
  check (Alcotest.list refkey) "frontier" [ ref_q ] (keys m.frontier);
  check Alcotest.bool "not a cycle" false (cycle_found alg)

let test_matching_cancels () =
  let alg = alg_of [ (ref_f, 0); (ref_q, 2) ] [ (ref_q, 2); (ref_o, 0) ] in
  let m = match_exn alg in
  check (Alcotest.list refkey) "unresolved" [ ref_f ] (keys m.unresolved);
  check (Alcotest.list refkey) "frontier" [ ref_o ] (keys m.frontier)

let test_matching_complete_cycle () =
  let entries = [ (ref_f, 0); (ref_q, 0); (ref_o, 0); (ref_d, 0) ] in
  let alg = alg_of entries entries in
  check Alcotest.bool "cycle found" true (cycle_found alg)

let test_matching_ic_abort () =
  let alg = alg_of [ (ref_f, 3) ] [ (ref_f, 4) ] in
  (match Algebra.matching alg with
  | Algebra.Ic_abort { key; source_ic = 3; target_ic = 4 } ->
      check refkey "key" ref_f key
  | Algebra.Ic_abort _ -> Alcotest.fail "wrong ics"
  | Algebra.Match _ -> Alcotest.fail "expected abort");
  check Alcotest.bool "no cycle on abort" false (cycle_found alg)

(* ------------------------------------------------------------------ *)
(* Paper Fig. 3, steps 1-26 *)

let test_paper_fig3_steps () =
  (* Step 1: F_P2 chosen as candidate. *)
  let alg0 = source_of [ (ref_f, 0) ] in
  (* Steps 2-3: StubsFrom(F_P2) = {Q_P4}. *)
  let alg1 = add Algebra.Target alg0 (ref_q, 0) in
  (* Step 6: matching at P4 -> {{F} -> {Q}} : no cycle. *)
  let m1 = match_exn alg1 in
  check (Alcotest.list refkey) "step6 source" [ ref_f ] (keys m1.unresolved);
  check (Alcotest.list refkey) "step6 target" [ ref_q ] (keys m1.frontier);
  check Alcotest.bool "step7 no cycle" false (cycle_found alg1);
  (* Steps 8-10 at P4: add scion Q (arrival), stub O. *)
  let alg2 = add Algebra.Target (add Algebra.Source alg1 (ref_q, 0)) (ref_o, 0) in
  (* Step 13 at P3: matching -> {{F} -> {O}}. *)
  let alg2 = add Algebra.Source alg2 (ref_q, 0) in
  let m2 = match_exn alg2 in
  check (Alcotest.list refkey) "step13 source" [ ref_f ] (keys m2.unresolved);
  check (Alcotest.list refkey) "step13 target" [ ref_o ] (keys m2.frontier);
  (* Steps 15-16 at P3. *)
  let alg3 = add Algebra.Target (add Algebra.Source alg2 (ref_o, 0)) (ref_d, 0) in
  (* Step 19 at P1: matching -> {{F} -> {D}}. *)
  let m3 = match_exn alg3 in
  check (Alcotest.list refkey) "step19 source" [ ref_f ] (keys m3.unresolved);
  check (Alcotest.list refkey) "step19 target" [ ref_d ] (keys m3.frontier);
  (* Steps 21-22 at P1. *)
  let alg4 = add Algebra.Target (add Algebra.Source alg3 (ref_d, 0)) (ref_f, 0) in
  (* Steps 24-26 at P2: {{} -> {}} -> cycle found. *)
  let m4 = match_exn alg4 in
  check (Alcotest.list refkey) "step25 source empty" [] (keys m4.unresolved);
  check (Alcotest.list refkey) "step25 target empty" [] (keys m4.frontier);
  check Alcotest.bool "step26 cycle" true (cycle_found alg4)

(* ------------------------------------------------------------------ *)
(* Paper Fig. 4 (mutually-linked cycles), key matchings *)

let v_p5 = oid 5 0

let y_p5 = oid 5 1

let t_p4 = oid 4 1

let k_p3 = oid 3 1

let zb_p6 = oid 6 0

let ref_v = rkey 2 v_p5 (* F_P2 -> V_P5 *)

let ref_y = rkey 6 y_p5 (* ZD_P6 -> Y_P5 *)

let ref_t = rkey 5 t_p4 (* {V,Y}_P5 -> T_P4: one shared stub *)

let ref_d4 = rkey 4 d_p1 (* T_P4 -> D_P1 *)

let ref_f4 = rkey 1 f_p2 (* D_P1 -> F_P2 *)

let ref_k = rkey 2 k_p3 (* F_P2 -> K_P3 *)

let ref_zb = rkey 3 zb_p6 (* K_P3 -> ZB_P6 *)

let test_paper_fig4_steps () =
  (* Steps 1-3 at P2: two derivations from candidate F. *)
  let alg0 = source_of [ (ref_f4, 0) ] in
  let alg1a = add Algebra.Target alg0 (ref_v, 0) in
  (* Steps 4-6 at P5: arrival V, extra dependency Y (ScionsTo of the
     shared stub to T), stub T. *)
  let alg2a =
    alg1a
    |> fun a ->
    add Algebra.Source a (ref_v, 0)
    |> fun a -> add Algebra.Source a (ref_y, 0) |> fun a -> add Algebra.Target a (ref_t, 0)
  in
  (* Step 7 at P4. *)
  let alg3a =
    add Algebra.Target (add Algebra.Source alg2a (ref_t, 0)) (ref_d4, 0)
  in
  (* Step 8 at P1. *)
  let alg4a =
    add Algebra.Target (add Algebra.Source alg3a (ref_d4, 0)) (ref_f4, 0)
  in
  (* Step 10 at P2: matching -> {{Y_P5} -> {}} — dependency on Y still
     unresolved; no cycle (step 11). *)
  let m = match_exn alg4a in
  check (Alcotest.list refkey) "step10 unresolved Y" [ ref_y ] (keys m.unresolved);
  check (Alcotest.list refkey) "step10 empty frontier" [] (keys m.frontier);
  check Alcotest.bool "step11 no cycle" false (cycle_found alg4a);
  (* Steps 12-15 at P2: derivation along V again equals the delivered
     algebra -> terminate that branch (no new information). *)
  let alg5ab = add Algebra.Target alg4a (ref_v, 0) in
  check Alcotest.bool "step15 no new info" true (equal alg5ab alg4a);
  (* Derivation along K is new. *)
  let alg5aa = add Algebra.Target alg4a (ref_k, 0) in
  check Alcotest.bool "step13 is new" false (equal alg5aa alg4a);
  (* Step 17 at P3: matching of the delivered algebra (the arrival
     scion K joins the source set only when the next derivation is
     prepared, step 20) -> {{Y} -> {K}}. *)
  let m = match_exn alg5aa in
  check (Alcotest.list refkey) "step17 unresolved" [ ref_y ] (keys m.unresolved);
  check (Alcotest.list refkey) "step17 frontier" [ ref_k ] (keys m.frontier);
  (* Steps 19-20 at P3: source += K, target += ZB.  Step 21 at P6:
     matching -> {{Y} -> {ZB}}. *)
  let alg6aa = add Algebra.Target (add Algebra.Source alg5aa (ref_k, 0)) (ref_zb, 0) in
  let m = match_exn alg6aa in
  check (Alcotest.list refkey) "step21 unresolved" [ ref_y ] (keys m.unresolved);
  check (Alcotest.list refkey) "step21 frontier" [ ref_zb ] (keys m.frontier);
  (* Steps 23-24 at P6: source += ZB, target += Y. Step 25 at P5:
     {{} -> {}}. *)
  let alg7aa = add Algebra.Target (add Algebra.Source alg6aa (ref_zb, 0)) (ref_y, 0) in
  check Alcotest.bool "step26 cycle found" true (cycle_found alg7aa)

(* ------------------------------------------------------------------ *)
(* Paper §3.2: the invocation-counter race *)

let test_paper_race_ic_mismatch () =
  (* Detection started with Scion(F_P2) at IC = x; the mutator then
     invoked through the reference, so P1's later snapshot carries the
     stub at IC = x+1.  Matching must abort, not find a cycle. *)
  let x = 5 in
  let alg =
    alg_of
      [ (ref_f4, x); (ref_v, 0); (ref_t, 0); (ref_d4, 0) ]
      [ (ref_v, 0); (ref_t, 0); (ref_d4, 0) ]
  in
  match Algebra.add alg Algebra.Target ref_f4 ~ic:(x + 1) with
  | Algebra.Ic_conflict _ -> Alcotest.fail "sides are independent; no conflict on add"
  | Algebra.Added alg -> (
      match Algebra.matching alg with
      | Algebra.Ic_abort { key; source_ic; target_ic } ->
          check refkey "aborts on F" ref_f4 key;
          check Alcotest.int "source ic" x source_ic;
          check Alcotest.int "target ic" (x + 1) target_ic
      | Algebra.Match _ -> Alcotest.fail "race not detected")

(* ------------------------------------------------------------------ *)
(* Extra dependency prevents wrong detection (Fig. 1 situation) *)

let test_extra_dependency_blocks () =
  (* A 2-cycle F <-> Q with an extra incoming reference W -> F from P9:
     even after the full loop, the W dependency stays unresolved. *)
  let w_ref = rkey 9 f_p2 in
  let alg =
    alg_of
      [ (ref_f, 0); (w_ref, 0); (ref_q, 0) ]
      [ (ref_q, 0); (ref_f, 0) ]
  in
  let m = match_exn alg in
  check (Alcotest.list refkey) "W unresolved" [ w_ref ] (keys m.unresolved);
  check Alcotest.bool "no cycle" false (cycle_found alg)

(* ------------------------------------------------------------------ *)
(* Wire format *)

module Net_codec = Adgc_serial.Net_codec

(* Through the bytes and back, by the direct reader. *)
let wire_roundtrip emit read v = Net_codec.Read.run read (Net_codec.encode_shape emit v)

(* An algebra's entries as a run of their own, as a CDM carries them
   after its header. *)
let emit_compact s alg =
  Net_codec.packed s (Algebra.compact_length alg);
  Algebra.emit_entries s alg

let read_compact r = Algebra.read_entries r (Net_codec.Read.packed r)

let compact_roundtrip alg = wire_roundtrip emit_compact read_compact alg

let test_compact_wire_roundtrip () =
  let alg = alg_of [ (ref_f, 3); (ref_y, 1); (ref_q, 2) ] [ (ref_q, 2); (ref_o, 0) ] in
  check Alcotest.bool "roundtrip" true (equal alg (compact_roundtrip alg))

let test_compact_dedupes_shared_entries () =
  (* A fully-cancelled algebra (every key on both sides, equal ICs)
     must be about half the size of the plain encoding (the two sets
     written out separately, kept in [Wire_reference]) — measured on
     enough entries that per-message overheads do not dominate. *)
  let entries = List.init 16 (fun i -> (rkey (i mod 5) (oid ((i + 1) mod 5) i), 0)) in
  let alg = alg_of entries entries in
  let plain = String.length (Adgc_paper.Doc_codec.encode (Wire_reference.algebra_sval alg)) in
  let compact = Net_codec.size emit_compact alg in
  check Alcotest.bool "compact smaller" true (compact * 3 < plain * 2);
  (* Round-trips exactly. *)
  check Alcotest.bool "equal" true (equal alg (compact_roundtrip alg))

let test_compact_keeps_ic_conflicts_apart () =
  (* Same key on both sides with different ICs: must be written twice
     and decode back to the conflicting state (which matching then
     aborts on). *)
  let alg = alg_of [ (ref_f, 3) ] [ (ref_f, 4) ] in
  let alg' = compact_roundtrip alg in
  check Alcotest.bool "equal" true (equal alg alg');
  match Algebra.matching alg' with
  | Algebra.Ic_abort _ -> ()
  | Algebra.Match _ -> Alcotest.fail "conflict lost in the encoding"

(* The bytes of a tagged int 3 (tag 3, zigzag 6), a form this wire
   does not have. *)
let test_compact_rejects_junk () =
  match Net_codec.Read.run read_compact "\x03\x06" with
  | _ -> Alcotest.fail "junk accepted"
  | exception Adgc_serial.Wire.Malformed _ -> ()

(* A run is canonical: keys strictly ascend, and the one repeat is a
   conflict's two entries, bits 1 then 2 with different ICs.  Anything
   else the reader refuses, rather than hold a second run for the same
   entries.  A varint written longer than it needs is read as its
   value, and the run kept is the canonical one. *)
let test_compact_reader_wants_canonical_runs () =
  let run s ints =
    Net_codec.packed s (List.length ints);
    List.iter (Net_codec.raw s) ints
  in
  let read ints = Net_codec.Read.run read_compact (Net_codec.encode_shape run ints) in
  let refused what ints =
    match read ints with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Adgc_serial.Wire.Malformed _ -> ()
  in
  let e src owner serial ic bits = [ src; owner; serial; (ic * 4) + bits ] in
  refused "a key twice on one side" (e 1 2 3 0 1 @ e 1 2 3 0 1);
  refused "a key twice on one side, ICs apart" (e 1 2 3 0 1 @ e 1 2 3 5 1);
  refused "keys descending" (e 1 2 4 0 1 @ e 1 2 3 0 1);
  refused "a conflict's entries in the wrong order" (e 1 2 3 0 2 @ e 1 2 3 5 1);
  refused "a shared entry split in two" (e 1 2 3 7 1 @ e 1 2 3 7 2);
  refused "a shared entry, then the key again" (e 1 2 3 7 3 @ e 1 2 3 8 2);
  refused "a conflict, then the key a third time" (e 1 2 3 7 1 @ e 1 2 3 8 2 @ e 1 2 3 8 2);
  let conflict = read (e 1 2 3 7 1 @ e 1 2 3 8 2) in
  check Alcotest.bool "a conflict is read" true
    (equal conflict (alg_of [ (rkey 1 (oid 2 3), 7) ] [ (rkey 1 (oid 2 3), 8) ]));
  (* [0; 1; 2; ic 5, bits 1] with the 0 written in two bytes. *)
  let overlong = Net_codec.Read.run read_compact "\x08\x04\x80\x00\x01\x02\x15" in
  let plain = alg_of [ (rkey 0 (oid 1 2), 5) ] [] in
  check Alcotest.bool "an overlong varint reads as its value" true (equal plain overlong);
  check Alcotest.string "and is written back in one byte"
    (Net_codec.encode_shape emit_compact plain)
    (Net_codec.encode_shape emit_compact overlong)

let test_cdm_wire_roundtrip () =
  let alg = alg_of [ (ref_f, 3) ] [ (ref_q, 2) ] in
  let id = Detection_id.make ~initiator:(Proc_id.of_int 2) ~seq:9 in
  let cdm = Cdm.make ~id ~algebra:alg ~frontier:ref_q ~hops:4 ~budget:9 in
  let emit s c =
    Net_codec.packed s (Cdm.items c);
    Cdm.emit_items s c
  in
  let cdm' = wire_roundtrip emit (fun r -> Cdm.read_items r (Net_codec.Read.packed r)) cdm in
  check Alcotest.bool "id" true (Detection_id.compare cdm.Cdm.id cdm'.Cdm.id = 0);
  check refkey "frontier" cdm.Cdm.frontier cdm'.Cdm.frontier;
  check Alcotest.int "hops" 4 cdm'.Cdm.hops;
  check Alcotest.int "budget" 9 cdm'.Cdm.budget;
  check Alcotest.bool "algebra" true (equal cdm.Cdm.algebra cdm'.Cdm.algebra)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_ref =
  let open QCheck2.Gen in
  map3
    (fun src owner serial -> rkey src (oid owner serial))
    (int_range 0 5) (int_range 0 5) (int_range 0 3)

let gen_entries = QCheck2.Gen.(list_size (int_bound 12) (pair gen_ref (int_range 0 3)))

let prop_cycle_iff_equal_sets =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cycle_found iff source = target with equal ICs" ~count:500
       gen_entries (fun entries ->
         (* Dedupe by key to build a valid algebra. *)
         let dedup =
           List.fold_left
             (fun acc (k, ic) -> if List.mem_assoc k acc then acc else (k, ic) :: acc)
             [] entries
         in
         let alg = alg_of dedup dedup in
         cycle_found alg))

let prop_matching_partitions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"matching partitions the union of keys" ~count:500
       QCheck2.Gen.(pair gen_entries gen_entries)
       (fun (src, tgt) ->
         let dedup l =
           List.fold_left
             (fun acc (k, ic) -> if List.mem_assoc k acc then acc else (k, ic) :: acc)
             [] l
         in
         let src = dedup src and tgt = dedup tgt in
         let alg = alg_of src tgt in
         match Algebra.matching alg with
         | Algebra.Ic_abort { key; _ } ->
             (* Abort only when the same key appears on both sides with
                different ICs. *)
             let s = List.assoc key src and t = List.assoc key tgt in
             s <> t
         | Algebra.Match { unresolved; frontier } ->
             (* Unresolved keys are source-only; frontier keys are
                target-only; cancelled keys had equal ICs. *)
             List.for_all (fun (k, _) -> not (List.mem_assoc k tgt)) unresolved
             && List.for_all (fun (k, _) -> not (List.mem_assoc k src)) frontier
             && List.for_all
                  (fun (k, ic) ->
                    match List.assoc_opt k tgt with
                    | Some ic' -> ic = ic' || List.mem_assoc k unresolved
                    | None -> true)
                  src))

let prop_compact_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"compact algebra wire roundtrip" ~count:300
       QCheck2.Gen.(pair gen_entries gen_entries)
       (fun (src, tgt) ->
         let dedup l =
           List.fold_left
             (fun acc (k, ic) -> if List.mem_assoc k acc then acc else (k, ic) :: acc)
             [] l
         in
         let alg = alg_of (dedup src) (dedup tgt) in
         equal alg (compact_roundtrip alg)))

(* ------------------------------------------------------------------ *)
(* Algebra laws (pinned as properties, not examples) *)

let dedup_entries l =
  List.fold_left
    (fun acc (k, ic) -> if List.mem_assoc k acc then acc else (k, ic) :: acc)
    [] l

let gen_alg =
  QCheck2.Gen.map
    (fun (src, tgt) -> alg_of (dedup_entries src) (dedup_entries tgt))
    QCheck2.Gen.(pair gen_entries gen_entries)

(* Two union results agree when both are defined with equal algebras
   or both are conflicts (the conflicting key may legitimately differ
   between evaluation orders). *)
let union_agrees l r =
  match (l, r) with
  | Ok a, Ok b -> equal a b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_union_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"union is commutative" ~count:500
       QCheck2.Gen.(pair gen_alg gen_alg)
       (fun (a, b) -> union_agrees (Algebra.union a b) (Algebra.union b a)))

let prop_union_associative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"union is associative" ~count:500
       QCheck2.Gen.(triple gen_alg gen_alg gen_alg)
       (fun (a, b, c) ->
         let l = Result.bind (Algebra.union a b) (fun ab -> Algebra.union ab c) in
         let r = Result.bind (Algebra.union b c) (fun bc -> Algebra.union a bc) in
         union_agrees l r))

let prop_union_idempotent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"union is idempotent" ~count:500 gen_alg (fun a ->
         match Algebra.union a a with Ok a' -> equal a a' | Error _ -> false))

let prop_union_absorbs_add =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"union agrees with entry-wise add" ~count:500
       QCheck2.Gen.(pair gen_alg gen_alg)
       (fun (a, b) ->
         (* Folding b's entries into a with [add] computes the same
            union, including whether a conflict arises. *)
         let fold side entries acc =
           List.fold_left
             (fun acc (key, ic) ->
               Result.bind acc (fun t ->
                   match Algebra.add t side key ~ic with
                   | Algebra.Added t -> Ok t
                   | Algebra.Ic_conflict { key; _ } -> Error (side, key)))
             acc entries
         in
         union_agrees (Algebra.union a b)
           (fold Algebra.Source (Algebra.bindings b Algebra.Source) (Ok a)
           |> fold Algebra.Target (Algebra.bindings b Algebra.Target))))

(* Matching is monotone under IC increments: bumping the counter of a
   single-side entry never changes the match partition (same
   unresolved and frontier keys), while bumping one side of a
   cancelling pair always turns the match into an abort — a remote
   invocation between snapshots can only make the verdict stricter,
   never conjure a cycle. *)
let bump_side side alg key delta =
  let entries s = if s = side then
      List.map (fun (k, ic) -> if Ref_key.equal k key then (k, ic + delta) else (k, ic))
    else Fun.id
  in
  alg_of (entries Algebra.Source (Algebra.bindings alg Algebra.Source)) (entries Algebra.Target (Algebra.bindings alg Algebra.Target))

let prop_matching_monotone_single_side =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"matching ignores IC bumps on single-side entries" ~count:500
       QCheck2.Gen.(triple gen_alg (int_range 0 20) (int_range 1 3))
       (fun (alg, pick, delta) ->
         let singles =
           List.filter (fun (k, _) -> not (Algebra.ic alg Algebra.Target k <> None)) (Algebra.bindings alg Algebra.Source)
           |> List.map (fun (k, _) -> (Algebra.Source, k))
         in
         let singles =
           singles
           @ (List.filter (fun (k, _) -> not (Algebra.ic alg Algebra.Source k <> None)) (Algebra.bindings alg Algebra.Target)
             |> List.map (fun (k, _) -> (Algebra.Target, k)))
         in
         match singles with
         | [] -> true
         | _ -> (
             let side, key = List.nth singles (pick mod List.length singles) in
             let bumped = bump_side side alg key delta in
             match (Algebra.matching alg, Algebra.matching bumped) with
             | ( Algebra.Match { unresolved = u; frontier = f },
                 Algebra.Match { unresolved = u'; frontier = f' } ) ->
                 keys u = keys u' && keys f = keys f'
             | Algebra.Ic_abort _, Algebra.Ic_abort _ -> true
             | Algebra.Match _, Algebra.Ic_abort _ | Algebra.Ic_abort _, Algebra.Match _ ->
                 false)))

let prop_matching_aborts_on_bumped_pair =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"matching aborts when a cancelled pair's IC is bumped" ~count:500
       QCheck2.Gen.(triple gen_alg (int_range 0 20) (int_range 1 3))
       (fun (alg, pick, delta) ->
         match Algebra.matching alg with
         | Algebra.Ic_abort _ -> true (* already aborting; bumps cannot help *)
         | Algebra.Match _ -> (
             let cancelled =
               List.filter
                 (fun (k, ic) -> Algebra.ic alg Algebra.Target k = Some ic)
                 (Algebra.bindings alg Algebra.Source)
             in
             match cancelled with
             | [] -> true
             | _ -> (
                 let key, _ = List.nth cancelled (pick mod List.length cancelled) in
                 match Algebra.matching (bump_side Algebra.Source alg key delta) with
                 | Algebra.Ic_abort _ -> true
                 | Algebra.Match _ -> false))))

(* The O(1) verdict is [matching] read off counts kept by [add] and
   recomputed by [union]: over random add/union sequences the two must
   agree after every step, with the skip_ic_guards mutant off and on,
   and the kept cardinals must be the real ones. *)
type op = Add of Algebra.side * Ref_key.t * int | Union of Algebra.t

let gen_ops =
  let open QCheck2.Gen in
  let side = map (fun b -> if b then Algebra.Source else Algebra.Target) bool in
  list_size (int_bound 24)
    (frequency
       [
         (6, map3 (fun side key ic -> Add (side, key, ic)) side gen_ref (int_range 0 3));
         (1, map (fun alg -> Union alg) gen_alg);
       ])

let verdict_agrees alg =
  let agrees () =
    match (Algebra.verdict alg, Algebra.matching alg) with
    | Algebra.Conflict, Algebra.Ic_abort _ -> true
    | Algebra.Counts { unresolved; frontier }, Algebra.Match m ->
        unresolved = List.length m.unresolved && frontier = List.length m.frontier
    | Algebra.Conflict, Algebra.Match _ | Algebra.Counts _, Algebra.Ic_abort _ -> false
  in
  agrees ()
  && Scaffold.with_mutant "skip_ic_guards" agrees
  && Algebra.cardinal alg
     = (List.length (Algebra.bindings alg Algebra.Source), List.length (Algebra.bindings alg Algebra.Target))
  && cycle_found alg
     = (match Algebra.matching alg with
       | Algebra.Match { unresolved = []; frontier = [] } -> true
       | Algebra.Match _ | Algebra.Ic_abort _ -> false)

let prop_verdict_agrees_with_matching =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"verdict agrees with matching over add/union sequences" ~count:500
       gen_ops (fun ops ->
         let step (alg, ok) op =
           let alg =
             match op with
             | Add (side, key, ic) -> (
                 match Algebra.add alg side key ~ic with
                 | Algebra.Added alg -> alg
                 | Algebra.Ic_conflict _ -> alg)
             | Union other -> (
                 match Algebra.union alg other with Ok alg -> alg | Error _ -> alg)
           in
           (alg, ok && verdict_agrees alg)
         in
         snd (List.fold_left step (Algebra.empty, verdict_agrees Algebra.empty) ops)))

(* Parity with the two-map reference ([Algebra_reference]): random
   [add] and [union] sequences, IC conflicts included, drive both, and
   after every step everything observable must agree — the run the
   library holds first, byte for byte against the reference's own
   encoder of the same entries.  Where the
   library leaves a choice open — which of several conflicting keys
   [union] or [matching] names, and the order of [matching]'s lists —
   each must name a genuine conflict and the lists the same entries. *)
module Ref_alg = Algebra_reference

type parity_op =
  | P_add of Algebra.side * Ref_key.t * int
  | P_union of (Algebra.side * Ref_key.t * int) list

(* Keys and ICs past one byte, mixed in with the colliding small ones,
   so the runs hold multi-byte varints too. *)
let gen_wide_ref =
  let open QCheck2.Gen in
  frequency
    [
      (3, gen_ref);
      ( 1,
        map3
          (fun src owner serial -> rkey src (oid owner serial))
          (int_range 0 300) (int_range 0 300) (int_range 0 100_000) );
    ]

let gen_wide_ic = QCheck2.Gen.(frequency [ (4, int_range 0 3); (1, int_range 0 (1 lsl 40)) ])

let gen_parity_ops =
  let open QCheck2.Gen in
  let side = map (fun b -> if b then Algebra.Source else Algebra.Target) bool in
  let entry = triple side gen_wide_ref gen_wide_ic in
  list_size (int_bound 30)
    (frequency
       [
         (6, map (fun (s, k, ic) -> P_add (s, k, ic)) entry);
         (1, map (fun l -> P_union l) (list_size (int_bound 8) entry));
       ])

(* The same entries into both implementations, dropping conflicting ones. *)
let build_both entries =
  List.fold_left
    (fun (a, r) (side, key, ic) ->
      match (Algebra.add a side key ~ic, Ref_alg.add r side key ~ic) with
      | Algebra.Added a, Ref_alg.Added r -> (a, r)
      | _, _ -> (a, r))
    (Algebra.empty, Ref_alg.empty) entries

let same_bindings = List.equal (fun (k, ic) (k', ic') -> Ref_key.equal k k' && ic = ic')

let observables_agree a r keys =
  let verdicts () =
    (match (Algebra.verdict a, Ref_alg.verdict r) with
    | Algebra.Conflict, Ref_alg.Conflict -> true
    | Algebra.Counts c, Ref_alg.Counts c' -> c.unresolved = c'.unresolved && c.frontier = c'.frontier
    | Algebra.Conflict, Ref_alg.Counts _ | Algebra.Counts _, Ref_alg.Conflict -> false)
    && cycle_found a = Ref_alg.cycle_found r
  in
  let matchings () =
    match (Algebra.matching a, Ref_alg.matching r) with
    | Algebra.Match m, Ref_alg.Match m' ->
        (* The reference's walk order follows its maps' tree shapes;
           the library lists entries in ascending key order. *)
        let sorted = List.sort (fun (k, _) (k', _) -> Ref_key.compare k k') in
        same_bindings m.unresolved (sorted m'.unresolved)
        && same_bindings m.frontier (sorted m'.frontier)
    | Algebra.Ic_abort x, Ref_alg.Ic_abort y ->
        x.source_ic <> x.target_ic
        && Ref_alg.ic r Algebra.Source x.key = Some x.source_ic
        && Ref_alg.ic r Algebra.Target x.key = Some x.target_ic
        && Algebra.ic a Algebra.Source y.key = Some y.source_ic
        && Algebra.ic a Algebra.Target y.key = Some y.target_ic
    | Algebra.Match _, Ref_alg.Ic_abort _ | Algebra.Ic_abort _, Ref_alg.Match _ -> false
  in
  String.equal (run a) (Ref_alg.encode r)
  && same_bindings (Algebra.bindings a Algebra.Source) (Ref_alg.source r)
  && same_bindings (Algebra.bindings a Algebra.Target) (Ref_alg.target r)
  && Algebra.cardinal a = Ref_alg.cardinal r
  && List.for_all
       (fun key ->
         List.for_all
           (fun side ->
             (Algebra.ic a side key <> None) = Ref_alg.mem r side key
             && Algebra.ic a side key = Ref_alg.ic r side key)
           [ Algebra.Source; Algebra.Target ])
       keys
  && verdicts () && matchings ()
  && Scaffold.with_mutant "skip_ic_guards" (fun () -> verdicts () && matchings ())

let print_parity_ops ops =
  let entry (side, key, ic) =
    Printf.sprintf "%s %s:%d" (match side with Algebra.Source -> "source" | Algebra.Target -> "target")
      (Format.asprintf "%a" Ref_key.pp key) ic
  in
  String.concat "; "
    (List.map
       (function
         | P_add (side, key, ic) -> "add " ^ entry (side, key, ic)
         | P_union l -> "union [" ^ String.concat ", " (List.map entry l) ^ "]")
       ops)

let prop_parity_with_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"algebra = two-map reference over add/union sequences" ~count:500
       ~print:print_parity_ops gen_parity_ops (fun ops ->
         let keys =
           List.concat_map
             (function P_add (_, k, _) -> [ k ] | P_union l -> List.map (fun (_, k, _) -> k) l)
             ops
         in
         let step (a, r, ok) op =
           let a', r', same_result =
             match op with
             | P_add (side, key, ic) -> (
                 match (Algebra.add a side key ~ic, Ref_alg.add r side key ~ic) with
                 | Algebra.Added a', Ref_alg.Added r' -> (a', r', true)
                 | Algebra.Ic_conflict x, Ref_alg.Ic_conflict y ->
                     ( a,
                       r,
                       Ref_key.equal x.key y.key && x.existing = y.existing
                       && x.incoming = y.incoming )
                 | Algebra.Added _, Ref_alg.Ic_conflict _ | Algebra.Ic_conflict _, Ref_alg.Added _ ->
                     (a, r, false))
             | P_union entries -> (
                 let other, other_r = build_both entries in
                 let genuine side key =
                   match (Ref_alg.ic r side key, Ref_alg.ic other_r side key) with
                   | Some x, Some y -> x <> y
                   | _, _ -> false
                 in
                 match (Algebra.union a other, Ref_alg.union r other_r) with
                 | Ok a', Ok r' -> (a', r', true)
                 | Error (s, k), Error (s', k') -> (a, r, genuine s k && genuine s' k')
                 | Ok _, Error _ | Error _, Ok _ -> (a, r, false))
           in
           ( a',
             r',
             ok && same_result
             && equal a' a = Ref_alg.equal r' r
             && observables_agree a' r' keys )
         in
         let start = (Algebra.empty, Ref_alg.empty, observables_agree Algebra.empty Ref_alg.empty keys) in
         let _, _, ok = List.fold_left step start ops in
         ok))

(* A derivation is one merge pass; it must be what adding the same
   entries one by one to the reference gives: the sources in key order,
   then the target.  A same-side IC disagreement is [Conflicting], and
   a result equal to the base is [No_new_info].  Under the
   drop_source_scion mutant the lowest source is not added; under
   skip_ic_guards a disagreement keeps the counter already there. *)
let gen_derivation =
  let open QCheck2.Gen in
  let side = map (fun b -> if b then Algebra.Source else Algebra.Target) bool in
  let sources =
    map
      (List.sort_uniq (fun (k, _) (k', _) -> Ref_key.compare k k'))
      (list_size (int_bound 6) (pair gen_wide_ref gen_wide_ic))
  in
  triple
    (list_size (int_bound 12) (triple side gen_wide_ref gen_wide_ic))
    sources (pair gen_wide_ref gen_wide_ic)

let derivation_agrees (base, sources, (target, t_ic)) =
  let a, r = build_both base in
  let added =
    if Adgc_util.Mc_mutate.enabled "drop_source_scion" then
      match sources with _ :: rest -> rest | [] -> []
    else sources
  in
  let keep_first = Adgc_util.Mc_mutate.enabled "skip_ic_guards" in
  let expected =
    List.fold_left
      (fun acc (side, key, ic) ->
        Option.bind acc (fun r ->
            match Ref_alg.add r side key ~ic with
            | Ref_alg.Added r -> Some r
            | Ref_alg.Ic_conflict _ -> if keep_first then Some r else None))
      (Some r)
      (List.map (fun (k, ic) -> (Algebra.Source, k, ic)) added @ [ (Algebra.Target, target, t_ic) ])
  in
  let derived =
    Algebra.derive a
      ~sources:(fun push -> List.iter (fun (k, ic) -> push k ~ic) sources)
      ~target ~ic:t_ic
  in
  match (derived, expected) with
  | Algebra.Conflicting, None -> true
  | Algebra.No_new_info, Some r' -> Ref_alg.equal r' r
  | Algebra.Derived a', Some r' ->
      (not (Ref_alg.equal r' r))
      && String.equal (run a') (Ref_alg.encode r')
      && Algebra.cardinal a' = Ref_alg.cardinal r'
      && (match (Algebra.verdict a', Ref_alg.verdict r') with
         | Algebra.Conflict, Ref_alg.Conflict -> true
         | Algebra.Counts c, Ref_alg.Counts c' ->
             c.unresolved = c'.unresolved && c.frontier = c'.frontier
         | Algebra.Conflict, Ref_alg.Counts _ | Algebra.Counts _, Ref_alg.Conflict -> false)
  | (Algebra.Conflicting | Algebra.No_new_info | Algebra.Derived _), _ -> false

let print_derivation (base, sources, target) =
  let entry (key, ic) = Printf.sprintf "%s:%d" (Format.asprintf "%a" Ref_key.pp key) ic in
  Printf.sprintf "base [%s]; sources [%s]; target %s"
    (String.concat ", "
       (List.map
          (fun (side, key, ic) ->
            (match side with Algebra.Source -> "source " | Algebra.Target -> "target ")
            ^ entry (key, ic))
          base))
    (String.concat ", " (List.map entry sources))
    (entry target)

let prop_derive_is_adds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"a derivation = its entries added one by one, mutants too" ~count:500
       ~print:print_derivation gen_derivation (fun case ->
         derivation_agrees case
         && Scaffold.with_mutant "drop_source_scion" (fun () -> derivation_agrees case)
         && Scaffold.with_mutant "skip_ic_guards" (fun () -> derivation_agrees case)))

let gen_detection_id =
  QCheck2.Gen.map
    (fun (p, seq) -> Detection_id.make ~initiator:(Proc_id.of_int p) ~seq)
    QCheck2.Gen.(pair (int_range 0 4) (int_range 0 4))

let prop_detection_id_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Detection_id order is total" ~count:500
       QCheck2.Gen.(triple gen_detection_id gen_detection_id gen_detection_id)
       (fun (a, b, c) ->
         let sgn x = compare x 0 in
         (* antisymmetry *)
         sgn (Detection_id.compare a b) = -sgn (Detection_id.compare b a)
         (* transitivity *)
         && (not (Detection_id.compare a b <= 0 && Detection_id.compare b c <= 0)
            || Detection_id.compare a c <= 0)))

let suite =
  ( "algebra",
    [
      Alcotest.test_case "proc_id basics" `Quick test_proc_id;
      Alcotest.test_case "oid ordering" `Quick test_oid_ordering;
      Alcotest.test_case "ref_key ordering" `Quick test_ref_key_ordering;
      Alcotest.test_case "detection_id" `Quick test_detection_id;
      Alcotest.test_case "add: dedupe" `Quick test_add_dedupe;
      Alcotest.test_case "add: IC conflict" `Quick test_add_conflict;
      Alcotest.test_case "sides independent" `Quick test_sides_independent;
      Alcotest.test_case "mem and ic" `Quick test_mem_and_ic;
      Alcotest.test_case "equality" `Quick test_equal;
      Alcotest.test_case "matching: empty" `Quick test_matching_empty;
      Alcotest.test_case "matching: disjoint" `Quick test_matching_disjoint;
      Alcotest.test_case "matching: cancellation" `Quick test_matching_cancels;
      Alcotest.test_case "matching: complete cycle" `Quick test_matching_complete_cycle;
      Alcotest.test_case "matching: IC abort" `Quick test_matching_ic_abort;
      Alcotest.test_case "paper fig3 steps 1-26" `Quick test_paper_fig3_steps;
      Alcotest.test_case "paper fig4 mutual cycles" `Quick test_paper_fig4_steps;
      Alcotest.test_case "paper §3.2 IC race" `Quick test_paper_race_ic_mismatch;
      Alcotest.test_case "extra dependency blocks detection" `Quick test_extra_dependency_blocks;
      Alcotest.test_case "compact wire roundtrip" `Quick test_compact_wire_roundtrip;
      Alcotest.test_case "compact encoding dedupes" `Quick test_compact_dedupes_shared_entries;
      Alcotest.test_case "compact keeps IC conflicts" `Quick test_compact_keeps_ic_conflicts_apart;
      Alcotest.test_case "compact reader rejects junk" `Quick test_compact_rejects_junk;
      Alcotest.test_case "compact reader wants canonical runs" `Quick
        test_compact_reader_wants_canonical_runs;
      Alcotest.test_case "cdm wire roundtrip" `Quick test_cdm_wire_roundtrip;
      prop_cycle_iff_equal_sets;
      prop_matching_partitions;
      prop_compact_roundtrip;
      prop_union_commutative;
      prop_union_associative;
      prop_union_idempotent;
      prop_union_absorbs_add;
      prop_matching_monotone_single_side;
      prop_matching_aborts_on_bumped_pair;
      prop_verdict_agrees_with_matching;
      prop_parity_with_reference;
      prop_derive_is_adds;
      prop_detection_id_order;
    ] )
