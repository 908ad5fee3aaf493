module Sval = Adgc_serial.Sval
module N = Adgc_serial.Net_codec

(* Besides the two maps, an algebra carries the counts its matching
   verdict needs, kept current by [add] and recomputed by [union], so
   the detector's per-hop questions cost O(1). *)
type t = {
  source : int Ref_key.Map.t;
  target : int Ref_key.Map.t;
  n_source : int;
  n_target : int;
  unresolved : int;  (** keys only in [source] *)
  frontier : int;  (** keys only in [target] *)
  conflicts : int;  (** keys on both sides with different ICs *)
}

let empty =
  {
    source = Ref_key.Map.empty;
    target = Ref_key.Map.empty;
    n_source = 0;
    n_target = 0;
    unresolved = 0;
    frontier = 0;
    conflicts = 0;
  }

type side = Source | Target

let side_name = function Source -> "source" | Target -> "target"

type add_result =
  | Added of t
  | Ic_conflict of { key : Ref_key.t; existing : int; incoming : int }

let pick = function Source -> fun t -> t.source | Target -> fun t -> t.target

let add t side key ~ic =
  let m = pick side t in
  match Ref_key.Map.find key m with
  | existing when existing = ic -> Added t
  | existing -> Ic_conflict { key; existing; incoming = ic }
  | exception Not_found ->
      (* A key already on the other side stops being unmatched there;
         it cancels (equal ICs) or becomes a conflict. *)
      let other = match side with Source -> t.target | Target -> t.source in
      let matched, conflict =
        match Ref_key.Map.find key other with
        | other_ic when other_ic = ic -> (1, 0)
        | _ -> (1, 1)
        | exception Not_found -> (0, 0)
      in
      let conflicts = t.conflicts + conflict in
      Added
        (match side with
        | Source ->
            {
              t with
              source = Ref_key.Map.add key ic m;
              n_source = t.n_source + 1;
              unresolved = t.unresolved + 1 - matched;
              frontier = t.frontier - matched;
              conflicts;
            }
        | Target ->
            {
              t with
              target = Ref_key.Map.add key ic m;
              n_target = t.n_target + 1;
              frontier = t.frontier + 1 - matched;
              unresolved = t.unresolved - matched;
              conflicts;
            })

let add_exn t side key ~ic =
  match add t side key ~ic with
  | Added t -> t
  | Ic_conflict { key; existing; incoming } ->
      invalid_arg
        (Format.asprintf "Algebra.add_exn: IC conflict on %a (%d vs %d)" Ref_key.pp key
           existing incoming)

exception Union_conflict of side * Ref_key.t

let of_maps source target =
  let shared = ref 0 and conflicts = ref 0 in
  Ref_key.Map.iter
    (fun key s_ic ->
      match Ref_key.Map.find key target with
      | t_ic ->
          incr shared;
          if t_ic <> s_ic then incr conflicts
      | exception Not_found -> ())
    source;
  let n_source = Ref_key.Map.cardinal source and n_target = Ref_key.Map.cardinal target in
  {
    source;
    target;
    n_source;
    n_target;
    unresolved = n_source - !shared;
    frontier = n_target - !shared;
    conflicts = !conflicts;
  }

let union a b =
  let merge side m1 m2 =
    Ref_key.Map.union
      (fun key l r -> if l = r then Some l else raise (Union_conflict (side, key)))
      m1 m2
  in
  try Ok (of_maps (merge Source a.source b.source) (merge Target a.target b.target))
  with Union_conflict (side, key) -> Error (side, key)

let source t = Ref_key.Map.bindings t.source

let target t = Ref_key.Map.bindings t.target

let mem t side key = Ref_key.Map.mem key (pick side t)

let ic t side key = Ref_key.Map.find_opt key (pick side t)

let cardinal t = (t.n_source, t.n_target)

let equal a b =
  a.n_source = b.n_source && a.n_target = b.n_target
  && Ref_key.Map.equal Int.equal a.source b.source
  && Ref_key.Map.equal Int.equal a.target b.target

type matching_result =
  | Match of { unresolved : (Ref_key.t * int) list; frontier : (Ref_key.t * int) list }
  | Ic_abort of { key : Ref_key.t; source_ic : int; target_ic : int }

exception Abort of Ref_key.t * int * int

let matching t =
  (* One simultaneous walk over both ordered maps: entries present on
     both sides cancel when their ICs agree and abort otherwise. *)
  try
    let unresolved = ref [] and frontier = ref [] in
    let cancel key source_ic target_ic =
      (* Gauntlet mutant: cancelling despite an IC disagreement is the
         paper's canonical unsafe variant — a mutator invocation
         between the two snapshots goes unnoticed. *)
      if source_ic <> target_ic && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards")
      then raise (Abort (key, source_ic, target_ic))
      else None
    in
    ignore
      (Ref_key.Map.merge
         (fun key s_ic t_ic ->
           (match (s_ic, t_ic) with
           | Some s, Some tg -> ignore (cancel key s tg)
           | Some s, None -> unresolved := (key, s) :: !unresolved
           | None, Some tg -> frontier := (key, tg) :: !frontier
           | None, None -> ());
           None)
         t.source t.target);
    Match { unresolved = List.rev !unresolved; frontier = List.rev !frontier }
  with Abort (key, source_ic, target_ic) -> Ic_abort { key; source_ic; target_ic }

type verdict = Conflict | Counts of { unresolved : int; frontier : int }

let verdict t =
  (* Same guard as [matching]: the skip_ic_guards mutant cancels
     conflicting entries instead of aborting. *)
  if t.conflicts > 0 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then Conflict
  else Counts { unresolved = t.unresolved; frontier = t.frontier }

let cycle_found t =
  match verdict t with Counts { unresolved = 0; frontier = 0 } -> true | Counts _ | Conflict -> false

(* ------------------------------------------------------------------ *)
(* Wire format *)

let n_entry = N.Name.v "entry"
let n_ce = N.Name.v "ce"
let n_src = N.Name.v "src"
let n_owner = N.Name.v "owner"
let n_serial = N.Name.v "serial"
let n_ic = N.Name.v "ic"
let n_bits = N.Name.v "bits"
let n_algebra = N.Name.v "algebra"
let n_algebra_c = N.Name.v "algebra_c"
let n_source = N.Name.v "source"
let n_target = N.Name.v "target"
let n_entries = N.Name.v "entries"

let emit_key s (key : Ref_key.t) =
  N.field s n_src;
  N.int s (Proc_id.to_int key.Ref_key.src);
  N.field s n_owner;
  N.int s (Proc_id.to_int (Oid.owner key.Ref_key.target));
  N.field s n_serial;
  N.int s key.Ref_key.target.Oid.serial

let emit_entries s m =
  N.list s (Ref_key.Map.cardinal m);
  Ref_key.Map.iter
    (fun key ic ->
      N.record s n_entry 4;
      emit_key s key;
      N.field s n_ic;
      N.int s ic)
    m

let emit s t =
  N.record s n_algebra 2;
  N.field s n_source;
  emit_entries s t.source;
  N.field s n_target;
  emit_entries s t.target

(* Compact form: one record per distinct (key, ic) with two presence
   bits packed into one integer (1 = source, 2 = target, 3 = both).
   Source entries come first in key order, then the target entries not
   already written with bits = 3. *)
let emit_compact s t =
  let emit_ce key ic bits =
    N.record s n_ce 5;
    emit_key s key;
    N.field s n_ic;
    N.int s ic;
    N.field s n_bits;
    N.int s bits
  in
  let shared_equal = t.n_source - t.unresolved - t.conflicts in
  N.record s n_algebra_c 1;
  N.field s n_entries;
  N.list s (t.n_source + t.n_target - shared_equal);
  Ref_key.Map.iter
    (fun key s_ic ->
      match Ref_key.Map.find key t.target with
      | t_ic when t_ic = s_ic -> emit_ce key s_ic 3
      | _ | (exception Not_found) -> emit_ce key s_ic 1)
    t.source;
  Ref_key.Map.iter
    (fun key t_ic ->
      match Ref_key.Map.find key t.source with
      | s_ic when s_ic = t_ic -> ()
      | _ | (exception Not_found) -> emit_ce key t_ic 2)
    t.target

let to_sval t = N.to_sval emit t

let to_sval_compact t = N.to_sval emit_compact t

let entry_of_sval = function
  | Sval.Record
      ( "entry",
        [ ("src", Sval.Int src); ("owner", Sval.Int owner); ("serial", Sval.Int serial); ("ic", Sval.Int ic) ]
      )
    when src >= 0 && owner >= 0 && serial >= 0 ->
      let target = Oid.make ~owner:(Proc_id.of_int owner) ~serial in
      Some (Ref_key.make ~src:(Proc_id.of_int src) ~target, ic)
  | _ -> None

let compact_entry_of_sval = function
  | Sval.Record
      ( "ce",
        [
          ("src", Sval.Int src);
          ("owner", Sval.Int owner);
          ("serial", Sval.Int serial);
          ("ic", Sval.Int ic);
          ("bits", Sval.Int bits);
        ] )
    when src >= 0 && owner >= 0 && serial >= 0 && bits >= 1 && bits <= 3 ->
      let target = Oid.make ~owner:(Proc_id.of_int owner) ~serial in
      Some (Ref_key.make ~src:(Proc_id.of_int src) ~target, ic, bits)
  | _ -> None

let of_sval_compact entries =
  List.fold_left
    (fun acc e ->
      match (acc, compact_entry_of_sval e) with
      | Some t, Some (key, ic, bits) ->
          let add_side side t =
            match add t side key ~ic with Added t -> Some t | Ic_conflict _ -> None
          in
          let t = if bits land 1 <> 0 then add_side Source t else Some t in
          Option.bind t (fun t -> if bits land 2 <> 0 then add_side Target t else Some t)
      | _, _ -> None)
    (Some empty) entries

let of_sval v =
  let entries l =
    List.fold_left
      (fun acc e ->
        match (acc, entry_of_sval e) with
        | Some acc, Some entry -> Some (entry :: acc)
        | _, _ -> None)
      (Some []) l
    |> Option.map List.rev
  in
  match v with
  | Sval.Record ("algebra_c", [ ("entries", Sval.List l) ]) -> of_sval_compact l
  | Sval.Record ("algebra", [ ("source", Sval.List src); ("target", Sval.List tgt) ]) -> (
      match (entries src, entries tgt) with
      | Some src, Some tgt ->
          let build side init l =
            List.fold_left
              (fun acc (key, ic) ->
                match acc with
                | None -> None
                | Some t -> ( match add t side key ~ic with Added t -> Some t | Ic_conflict _ -> None))
              (Some init) l
          in
          Option.bind (build Source empty src) (fun t -> build Target t tgt)
      | _, _ -> None)
  | _ -> None

let pp_entry ppf (key, ic) = Format.fprintf ppf "%a:%d" Ref_key.pp key ic

let pp_entries ppf l =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    l

let pp ppf t = Format.fprintf ppf "{%a -> %a}" pp_entries (source t) pp_entries (target t)

let to_string t = Format.asprintf "%a" pp t
