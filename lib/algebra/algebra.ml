module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read

(* The paper's optimized form (§4) is the representation: one ordered
   map from each reference to the IC it has in the source set, in the
   target set, or in both.  Beside it, an algebra carries the counts its
   matching verdict and cardinals need, kept current by [add] and
   recomputed by [union], so the detector's per-hop questions cost
   O(1). *)
type entry = Src of int | Tgt of int | Both of { s_ic : int; t_ic : int }

type t = {
  map : entry Ref_key.Map.t;
  unresolved : int;  (** [Src] entries *)
  frontier : int;  (** [Tgt] entries *)
  both : int;  (** [Both] entries *)
  conflicts : int;  (** [Both] entries with different ICs *)
}

let empty = { map = Ref_key.Map.empty; unresolved = 0; frontier = 0; both = 0; conflicts = 0 }

type side = Source | Target

type add_result =
  | Added of t
  | Ic_conflict of { key : Ref_key.t; existing : int; incoming : int }

(* The IC an entry has on [side]; [None] when it is absent there. *)
let ic_on side e =
  match (side, e) with
  | Source, (Src ic | Both { s_ic = ic; _ }) | Target, (Tgt ic | Both { t_ic = ic; _ }) -> Some ic
  | Source, Tgt _ | Target, Src _ -> None

let add t side key ~ic =
  match (side, Ref_key.Map.find key t.map) with
  | exception Not_found -> (
      match side with
      | Source ->
          Added { t with map = Ref_key.Map.add key (Src ic) t.map; unresolved = t.unresolved + 1 }
      | Target ->
          Added { t with map = Ref_key.Map.add key (Tgt ic) t.map; frontier = t.frontier + 1 })
  | (Source, (Src existing | Both { s_ic = existing; _ }))
  | (Target, (Tgt existing | Both { t_ic = existing; _ })) ->
      if existing = ic then Added t else Ic_conflict { key; existing; incoming = ic }
  (* A key unmatched on the other side now cancels (equal ICs) or
     becomes a conflict. *)
  | Source, Tgt t_ic ->
      Added
        {
          t with
          map = Ref_key.Map.add key (Both { s_ic = ic; t_ic }) t.map;
          frontier = t.frontier - 1;
          both = t.both + 1;
          conflicts = (t.conflicts + if t_ic = ic then 0 else 1);
        }
  | Target, Src s_ic ->
      Added
        {
          t with
          map = Ref_key.Map.add key (Both { s_ic; t_ic = ic }) t.map;
          unresolved = t.unresolved - 1;
          both = t.both + 1;
          conflicts = (t.conflicts + if s_ic = ic then 0 else 1);
        }

let add_exn t side key ~ic =
  match add t side key ~ic with
  | Added t -> t
  | Ic_conflict { key; existing; incoming } ->
      invalid_arg
        (Format.asprintf "Algebra.add_exn: IC conflict on %a (%d vs %d)" Ref_key.pp key
           existing incoming)

let of_map map =
  Ref_key.Map.fold
    (fun _ e t ->
      match e with
      | Src _ -> { t with unresolved = t.unresolved + 1 }
      | Tgt _ -> { t with frontier = t.frontier + 1 }
      | Both { s_ic; t_ic } ->
          { t with both = t.both + 1; conflicts = (t.conflicts + if s_ic = t_ic then 0 else 1) })
    map { empty with map }

exception Union_conflict of side * Ref_key.t

let union a b =
  (* Side by side, each side's ICs must agree where both have one. *)
  let side_ic side key l r =
    let ic e = Option.bind e (ic_on side) in
    match (ic l, ic r) with
    | Some l, Some r when l <> r -> raise (Union_conflict (side, key))
    | (Some _ as ic), _ | None, ic -> ic
  in
  let merge key l r =
    match (side_ic Source key l r, side_ic Target key l r) with
    | Some s_ic, Some t_ic -> Some (Both { s_ic; t_ic })
    | Some ic, None -> Some (Src ic)
    | None, Some ic -> Some (Tgt ic)
    | None, None -> None
  in
  try Ok (of_map (Ref_key.Map.merge merge a.map b.map))
  with Union_conflict (side, key) -> Error (side, key)

let bindings t side =
  Ref_key.Map.fold
    (fun key e acc -> match ic_on side e with Some ic -> (key, ic) :: acc | None -> acc)
    t.map []
  |> List.rev

let ic t side key = Option.bind (Ref_key.Map.find_opt key t.map) (ic_on side)

let cardinal t = (t.unresolved + t.both, t.frontier + t.both)

let equal_entry a b =
  match (a, b) with
  | Src a, Src b | Tgt a, Tgt b -> a = b
  | Both a, Both b -> a.s_ic = b.s_ic && a.t_ic = b.t_ic
  | (Src _ | Tgt _ | Both _), _ -> false

let equal a b =
  (* Equal maps have equal counts: most unequal algebras differ there. *)
  a.unresolved = b.unresolved && a.frontier = b.frontier && a.both = b.both
  && Ref_key.Map.equal equal_entry a.map b.map

type matching_result =
  | Match of { unresolved : (Ref_key.t * int) list; frontier : (Ref_key.t * int) list }
  | Ic_abort of { key : Ref_key.t; source_ic : int; target_ic : int }

exception Abort of Ref_key.t * int * int

let matching t =
  (* One in-order walk: entries present on both sides cancel when their
     ICs agree and abort the walk otherwise. *)
  let entry key e (unresolved, frontier) =
    match e with
    | Src ic -> ((key, ic) :: unresolved, frontier)
    | Tgt ic -> (unresolved, (key, ic) :: frontier)
    | Both { s_ic; t_ic } ->
        (* Gauntlet mutant: cancelling despite an IC disagreement is the
           paper's canonical unsafe variant — a mutator invocation
           between the two snapshots goes unnoticed. *)
        if s_ic <> t_ic && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then
          raise (Abort (key, s_ic, t_ic));
        (unresolved, frontier)
  in
  match Ref_key.Map.fold entry t.map ([], []) with
  | unresolved, frontier -> Match { unresolved = List.rev unresolved; frontier = List.rev frontier }
  | exception Abort (key, source_ic, target_ic) -> Ic_abort { key; source_ic; target_ic }

type verdict = Conflict | Counts of { unresolved : int; frontier : int }

let verdict t =
  (* Same guard as [matching]: the skip_ic_guards mutant cancels
     conflicting entries instead of aborting. *)
  if t.conflicts > 0 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then Conflict
  else Counts { unresolved = t.unresolved; frontier = t.frontier }

(* ------------------------------------------------------------------ *)
(* Wire format *)

(* Four ints per entry, [src; owner; serial; ic * 4 + bits] (the key
   as {!Ref_key.emit} writes it), in key order, with two presence bits
   (1 = source, 2 = target, 3 = both) under the IC.  A key on both
   sides with different ICs cannot share an entry: it is written
   twice, bits 1 then 2. *)
let entry_width = 4

(* A [Both] with different ICs takes two entries. *)
let compact_length t = entry_width * (t.unresolved + t.frontier + t.both + t.conflicts)

let emit_entries s t =
  let emit_ce key ic bits =
    Ref_key.emit s key;
    (* An IC past 60 bits would lose its top bits under the shift. *)
    if ic lsr 60 <> 0 then invalid_arg "Algebra.emit_entries: IC out of range";
    N.raw s ((ic lsl 2) lor bits)
  in
  Ref_key.Map.iter
    (fun key -> function
      | Src ic -> emit_ce key ic 1
      | Tgt ic -> emit_ce key ic 2
      | Both { s_ic; t_ic } when s_ic = t_ic -> emit_ce key s_ic 3
      | Both { s_ic; t_ic } ->
          emit_ce key s_ic 1;
          emit_ce key t_ic 2)
    t.map

(* The items must be whole entries, bits must name a side, and an
   entry must not contradict one already read.  A run holds no
   negative int, so neither does an id or an IC. *)
let read_entries r n =
  let n = R.entries r n ~fixed:0 ~width:entry_width "algebra" in
  let read_ce t =
    let key = Ref_key.read r in
    let ic_bits = R.raw r in
    let ic = ic_bits lsr 2 and bits = ic_bits land 3 in
    if bits = 0 then R.fail r "bad presence bits";
    let add_side side t =
      match add t side key ~ic with Added t -> t | Ic_conflict _ -> R.fail r "ic conflict"
    in
    let t = if bits land 1 <> 0 then add_side Source t else t in
    if bits land 2 <> 0 then add_side Target t else t
  in
  let rec go k t = if k = 0 then t else go (k - 1) (read_ce t) in
  go n empty
