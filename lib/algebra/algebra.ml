module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

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

let n_ce = N.Name.v "ce"
let n_src = N.Name.v "src"
let n_owner = N.Name.v "owner"
let n_serial = N.Name.v "serial"
let n_ic = N.Name.v "ic"
let n_bits = N.Name.v "bits"
let n_algebra_c = N.Name.v "algebra_c"
let n_entries = N.Name.v "entries"

(* One record per distinct (key, ic) with two presence bits packed
   into one integer (1 = source, 2 = target, 3 = both).  Source
   entries come first in key order, then the target entries not
   already written with bits = 3. *)
let emit_compact s t =
  let emit_ce (key : Ref_key.t) ic bits =
    N.record s n_ce 5;
    N.field s n_src;
    N.int s (Proc_id.to_int key.Ref_key.src);
    N.field s n_owner;
    N.int s (Proc_id.to_int (Oid.owner key.Ref_key.target));
    N.field s n_serial;
    N.int s key.Ref_key.target.Oid.serial;
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

(* Ids must not be negative, bits must name a side, and an entry must
   not contradict one already read. *)
let read_compact r =
  let read_ce t =
    R.record r n_ce 5;
    R.field r n_src;
    let src = R.int r in
    R.field r n_owner;
    let owner = R.int r in
    R.field r n_serial;
    let serial = R.int r in
    R.field r n_ic;
    let ic = R.int r in
    R.field r n_bits;
    let bits = R.int r in
    if src < 0 || owner < 0 || serial < 0 then R.fail r "negative id";
    if bits < 1 || bits > 3 then R.fail r "bad presence bits";
    let key =
      Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial)
    in
    let add_side side t =
      match add t side key ~ic with Added t -> t | Ic_conflict _ -> R.fail r "ic conflict"
    in
    let t = if bits land 1 <> 0 then add_side Source t else t in
    if bits land 2 <> 0 then add_side Target t else t
  in
  R.record r n_algebra_c 1;
  R.field r n_entries;
  let rec go n t = if n = 0 then t else go (n - 1) (read_ce t) in
  go (R.list r) empty

let pp_entry ppf (key, ic) = Format.fprintf ppf "%a:%d" Ref_key.pp key ic

let pp_entries ppf l =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    l

let pp ppf t = Format.fprintf ppf "{%a -> %a}" pp_entries (source t) pp_entries (target t)

let to_string t = Format.asprintf "%a" pp t
