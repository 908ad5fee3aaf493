(* Reference CDM algebra: the two-map implementation [Adgc_algebra.Algebra]
   used before it kept one map with a presence tag per reference, kept
   as an independent check on it.  The source and target sets are two
   separate ordered maps, and the O(1) counts are kept by [add] and
   recomputed by [union] exactly as they were.  The parity property in
   [Test_algebra] drives both with the same [add]/[union] sequences and
   compares everything observable.  Shares no code with the library
   algebra beyond the [side] type. *)

open Adgc_algebra

type side = Algebra.side = Source | Target

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
  if t.conflicts > 0 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then Conflict
  else Counts { unresolved = t.unresolved; frontier = t.frontier }

let cycle_found t =
  match verdict t with Counts { unresolved = 0; frontier = 0 } -> true | Counts _ | Conflict -> false

(* The run the library holds an algebra as, written from the two maps
   by an encoder of its own: per key in ascending order, [src; owner;
   serial; ic * 4 + bits] as unsigned LEB128 varints — one entry with
   bits 3 where the key has equal ICs on both sides, two (bits 1, then
   bits 2) where they differ. *)
let encode t =
  let b = Buffer.create 64 in
  let rec uvarint v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (v land 0x7F lor 0x80));
      uvarint (v lsr 7)
    end
  in
  let entry (key : Ref_key.t) ic bits =
    List.iter uvarint
      [
        Proc_id.to_int key.Ref_key.src;
        Proc_id.to_int (Oid.owner key.Ref_key.target);
        key.Ref_key.target.Oid.serial;
        (ic * 4) + bits;
      ]
  in
  Ref_key.Map.iter
    (fun key (s, tg) ->
      match (s, tg) with
      | Some s, Some tg when s = tg -> entry key s 3
      | s, tg ->
          Option.iter (fun ic -> entry key ic 1) s;
          Option.iter (fun ic -> entry key ic 2) tg)
    (Ref_key.Map.merge (fun _ s tg -> Some (s, tg)) t.source t.target);
  Buffer.contents b
