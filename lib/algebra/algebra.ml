module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read
module W = Adgc_serial.Wire

(* The paper's optimized form (§4) is the representation, and it is
   the wire's bytes: the run of entries [src; owner; serial; ic * 4 +
   bits] (the key as {!Ref_key.emit} writes it), in key order, as
   unsigned varints, with two presence bits (1 = source, 2 = target,
   3 = both) under the IC.  A key on both sides with different ICs
   cannot share an entry: it is two, bits 1 then 2.  Every way in
   writes the run canonically, so equal algebras are equal strings.
   Beside the run, an algebra carries the counts its matching verdict
   and cardinals need, so the detector's per-hop questions cost
   O(1). *)
type t = {
  run : string;
  unresolved : int;  (** keys only in the source set *)
  frontier : int;  (** keys only in the target set *)
  both : int;  (** keys in both *)
  conflicts : int;  (** keys in both with different ICs *)
}

let empty = { run = ""; unresolved = 0; frontier = 0; both = 0; conflicts = 0 }

type side = Source | Target

type add_result =
  | Added of t
  | Ic_conflict of { key : Ref_key.t; existing : int; incoming : int }

let entry_width = 4

let bit = function Source -> 1 | Target -> 2

let key_of ~src ~owner ~serial =
  Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial)

(* Key order, as {!Ref_key.compare} has it, on the key's three ints. *)
let[@inline] compare3 (a1 : int) (a2 : int) (a3 : int) b1 b2 b3 =
  if a1 <> b1 then if a1 < b1 then -1 else 1
  else if a2 <> b2 then if a2 < b2 then -1 else 1
  else if a3 <> b3 then if a3 < b3 then -1 else 1
  else 0

(* ------------------------------------------------------------------ *)
(* Reading the run in place.  Every item is an unsigned varint that a
   writer or {!read_entries} has bounded.  An entry is read into a
   cursor, item by item from its [stop]; an item of one or two bytes
   (below 16,384) is read inline. *)

(* An entry as read: its key, its [ic * 4 + bits], and where the next
   entry starts. *)
type entry = {
  mutable src : int;
  mutable owner : int;
  mutable serial : int;
  mutable icb : int;
  mutable stop : int;
}

let entry () = { src = 0; owner = 0; serial = 0; icb = 0; stop = 0 }

let rec long_item s e p shift acc =
  let b = Char.code (String.unsafe_get s p) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then begin
    e.stop <- p + 1;
    acc
  end
  else long_item s e (p + 1) (shift + 7) acc

(* The item at [e.stop], which moves past it. *)
let[@inline] item s e =
  let p = e.stop in
  let b0 = Char.code (String.unsafe_get s p) in
  if b0 < 0x80 then begin
    e.stop <- p + 1;
    b0
  end
  else
    let b1 = Char.code (String.unsafe_get s (p + 1)) in
    let low = (b0 land 0x7F) lor ((b1 land 0x7F) lsl 7) in
    if b1 < 0x80 then begin
      e.stop <- p + 2;
      low
    end
    else long_item s e (p + 2) 14 low

(* Read the entry at [p] into [e].  An entry is at least four bytes,
   and four one-byte items are read at once. *)
let decode s p e =
  let b0 = Char.code (String.unsafe_get s p)
  and b1 = Char.code (String.unsafe_get s (p + 1))
  and b2 = Char.code (String.unsafe_get s (p + 2))
  and b3 = Char.code (String.unsafe_get s (p + 3)) in
  if b0 lor b1 lor b2 lor b3 < 0x80 then begin
    e.src <- b0;
    e.owner <- b1;
    e.serial <- b2;
    e.icb <- b3;
    e.stop <- p + 4
  end
  else begin
    e.stop <- p;
    e.src <- item s e;
    e.owner <- item s e;
    e.serial <- item s e;
    e.icb <- item s e
  end

(* [f src owner serial ic bits acc] over the entries, in run order. *)
let fold_entries (t : t) f acc =
  let s = t.run and e = entry () in
  let rec go p acc =
    if p >= String.length s then acc
    else begin
      decode s p e;
      go e.stop (f e.src e.owner e.serial (e.icb lsr 2) (e.icb land 3) acc)
    end
  in
  go 0 acc

(* ------------------------------------------------------------------ *)
(* The merge: one pass over a run, combining entries pushed in
   ascending key order into it.  Base bytes that no push changes are
   copied in stretches; a run with nothing changed is not copied at
   all.  One merge state and one output buffer serve every merge, so a
   merge must not start another; [start] resets all of it. *)

type merge = {
  mutable base : t;
  (* the base's next unread entry and its offset ([String.length] of
     the run when there is none) *)
  mutable n_at : int;
  n : entry;
  (* the key being combined (none before the first push), its ICs
     (-1: absent), whether a push changed them, and the base bytes
     that held it *)
  mutable started : bool;
  mutable src : int;
  mutable owner : int;
  mutable serial : int;
  mutable s_ic : int;
  mutable t_ic : int;
  mutable changed : bool;
  mutable key_at : int;
  mutable key_end : int;
  mutable copied : int;  (** base bytes before this offset are written or replaced *)
  mutable dirty : bool;  (** the result differs from the base *)
  mutable conflict : (side * Ref_key.t * int * int) option;  (** the first one *)
  (* the result's counts *)
  mutable unresolved : int;
  mutable frontier : int;
  mutable both : int;
  mutable conflicts : int;
  (* [derive]'s target entry while it waits for its place, and whether
     the drop_source_scion mutant has a source still to drop *)
  mutable tgt_pending : bool;
  mutable tgt : Ref_key.t;
  mutable tgt_ic : int;
  mutable drop : bool;
}

let out = W.Writer.create ~initial:256 ()

let no_key = Ref_key.make ~src:(Proc_id.of_int 0) ~target:(Oid.make ~owner:(Proc_id.of_int 0) ~serial:0)

let m =
  {
    base = empty;
    n_at = 0;
    n = entry ();
    started = false;
    src = 0;
    owner = 0;
    serial = 0;
    s_ic = -1;
    t_ic = -1;
    changed = false;
    key_at = 0;
    key_end = 0;
    copied = 0;
    dirty = false;
    conflict = None;
    unresolved = 0;
    frontier = 0;
    both = 0;
    conflicts = 0;
    tgt_pending = false;
    tgt = no_key;
    tgt_ic = 0;
    drop = false;
  }

let[@inline] load_next () = if m.n_at < String.length m.base.run then decode m.base.run m.n_at m.n

let[@inline] advance () =
  m.n_at <- m.n.stop;
  load_next ()

let start (base : t) =
  m.base <- base;
  m.n_at <- 0;
  load_next ();
  m.started <- false;
  m.copied <- 0;
  m.dirty <- false;
  m.conflict <- None;
  m.unresolved <- base.unresolved;
  m.frontier <- base.frontier;
  m.both <- base.both;
  m.conflicts <- base.conflicts;
  m.tgt_pending <- false;
  m.drop <- false

(* What one key adds to the counts, [sign] 1, or takes away, -1. *)
let count sign s_ic t_ic =
  if s_ic >= 0 && t_ic >= 0 then begin
    m.both <- m.both + sign;
    if s_ic <> t_ic then m.conflicts <- m.conflicts + sign
  end
  else if s_ic >= 0 then m.unresolved <- m.unresolved + sign
  else if t_ic >= 0 then m.frontier <- m.frontier + sign

let write_entry ic bits =
  W.Writer.uvarint out m.src;
  W.Writer.uvarint out m.owner;
  W.Writer.uvarint out m.serial;
  W.Writer.uvarint out ((ic lsl 2) lor bits)

(* Close the key being combined: a changed key's entries replace its
   base bytes. *)
let flush () =
  let s_ic = m.s_ic and t_ic = m.t_ic in
  count 1 s_ic t_ic;
  if m.changed then begin
    if not m.dirty then W.Writer.clear out;
    m.dirty <- true;
    W.Writer.substring out m.base.run m.copied (m.key_at - m.copied);
    (if s_ic >= 0 && t_ic >= 0 && s_ic = t_ic then write_entry s_ic 3
     else begin
       if s_ic >= 0 then write_entry s_ic 1;
       if t_ic >= 0 then write_entry t_ic 2
     end);
    m.copied <- m.key_end
  end

(* Open [key]: pass the base's lower entries and take in its own. *)
let open_key src owner serial =
  let len = String.length m.base.run and n = m.n in
  while m.n_at < len && compare3 n.src n.owner n.serial src owner serial < 0 do
    advance ()
  done;
  m.started <- true;
  m.src <- src;
  m.owner <- owner;
  m.serial <- serial;
  m.key_at <- m.n_at;
  m.s_ic <- -1;
  m.t_ic <- -1;
  while m.n_at < len && compare3 n.src n.owner n.serial src owner serial = 0 do
    if n.icb land 1 <> 0 then m.s_ic <- n.icb lsr 2;
    if n.icb land 2 <> 0 then m.t_ic <- n.icb lsr 2;
    advance ()
  done;
  m.key_end <- m.n_at;
  m.changed <- false;
  count (-1) m.s_ic m.t_ic

(* An entry the run can hold: no negative id, and an IC that keeps all
   its bits under the shift. *)
let push side src owner serial ic =
  if src < 0 || owner < 0 || serial < 0 then invalid_arg "Algebra.add: negative id";
  if ic lsr 60 <> 0 then invalid_arg "Algebra.add: IC out of range";
  let c = if m.started then compare3 src owner serial m.src m.owner m.serial else 1 in
  if c < 0 then invalid_arg "Algebra: entries out of key order";
  if c > 0 then begin
    if m.started then flush ();
    open_key src owner serial
  end;
  let existing = match side with Source -> m.s_ic | Target -> m.t_ic in
  if existing < 0 then begin
    (match side with Source -> m.s_ic <- ic | Target -> m.t_ic <- ic);
    m.changed <- true
  end
  else if existing <> ic && Option.is_none m.conflict then
    m.conflict <- Some (side, key_of ~src ~owner ~serial, existing, ic)

let push_key side (key : Ref_key.t) ic =
  push side (Proc_id.to_int key.Ref_key.src)
    (Proc_id.to_int (Oid.owner key.Ref_key.target))
    key.Ref_key.target.Oid.serial ic

(* The merged algebra: the base itself when nothing changed. *)
let finish () : t =
  if m.started then flush ();
  let base = m.base in
  m.base <- empty;
  if not m.dirty then base
  else begin
    W.Writer.substring out base.run m.copied (String.length base.run - m.copied);
    {
      run = W.Writer.contents out;
      unresolved = m.unresolved;
      frontier = m.frontier;
      both = m.both;
      conflicts = m.conflicts;
    }
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let add t side key ~ic =
  start t;
  push_key side key ic;
  let merged = finish () in
  match m.conflict with
  | Some (_, _, existing, incoming) -> Ic_conflict { key; existing; incoming }
  | None -> Added merged

let add_exn t side key ~ic =
  match add t side key ~ic with
  | Added t -> t
  | Ic_conflict { key; existing; incoming } ->
      invalid_arg
        (Format.asprintf "Algebra.add_exn: IC conflict on %a (%d vs %d)" Ref_key.pp key
           existing incoming)

let union a b =
  start a;
  fold_entries b
    (fun src owner serial ic bits () ->
      if bits land 1 <> 0 then push Source src owner serial ic;
      if bits land 2 <> 0 then push Target src owner serial ic)
    ();
  let merged = finish () in
  match m.conflict with Some (side, key, _, _) -> Error (side, key) | None -> Ok merged

type derivation = Derived of t | No_new_info | Conflicting

let push_target () =
  m.tgt_pending <- false;
  push_key Target m.tgt m.tgt_ic

let push_source (key : Ref_key.t) ~ic =
  if m.drop then m.drop <- false
  else begin
    if m.tgt_pending && Ref_key.compare m.tgt key < 0 then push_target ();
    push_key Source key ic
  end

let derive t ~sources ~target ~ic =
  start t;
  m.tgt_pending <- true;
  m.tgt <- target;
  m.tgt_ic <- ic;
  (* Gauntlet mutant: lose one scion dependency (the lowest) from the
     source set — an external holder of the "cycle" goes unaccounted
     and matching can cancel to nothing. *)
  m.drop <- Adgc_util.Mc_mutate.enabled "drop_source_scion";
  sources push_source;
  if m.tgt_pending then push_target ();
  let merged = finish () in
  (* The skip_ic_guards mutant keeps the first counter it saw instead
     of aborting: rule 3 in its add-time form is the same guard. *)
  if Option.is_some m.conflict && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then Conflicting
  else if merged == t then No_new_info
  else Derived merged

(* ------------------------------------------------------------------ *)
(* Observation *)

let bindings t side =
  let b = bit side in
  fold_entries t
    (fun src owner serial ic bits acc ->
      if bits land b <> 0 then (key_of ~src ~owner ~serial, ic) :: acc else acc)
    []
  |> List.rev

(* A walk that stops at the first key past the one sought. *)
let probe = entry ()

let rec find s p b k_src k_owner k_serial =
  if p >= String.length s then None
  else begin
    decode s p probe;
    let c = compare3 probe.src probe.owner probe.serial k_src k_owner k_serial in
    if c > 0 then None
    else if c = 0 && probe.icb land b <> 0 then Some (probe.icb lsr 2)
    else find s probe.stop b k_src k_owner k_serial
  end

let ic (t : t) side (key : Ref_key.t) =
  find t.run 0 (bit side) (Proc_id.to_int key.Ref_key.src)
    (Proc_id.to_int (Oid.owner key.Ref_key.target))
    key.Ref_key.target.Oid.serial

let cardinal (t : t) = (t.unresolved + t.both, t.frontier + t.both)

type matching_result =
  | Match of { unresolved : (Ref_key.t * int) list; frontier : (Ref_key.t * int) list }
  | Ic_abort of { key : Ref_key.t; source_ic : int; target_ic : int }

exception Abort of Ref_key.t * int * int

let matching t =
  (* One in-order walk: entries present on both sides cancel when their
     ICs agree (bits 3) and abort the walk otherwise (bits 1, then bits
     2 for the same key). *)
  let entry src owner serial ic bits (unresolved, frontier) =
    let key = key_of ~src ~owner ~serial in
    match (bits, unresolved) with
    | 3, _ -> (unresolved, frontier)
    | 1, _ -> ((key, ic) :: unresolved, frontier)
    | _, (k, s_ic) :: rest when Ref_key.equal k key ->
        (* Gauntlet mutant: cancelling despite an IC disagreement is the
           paper's canonical unsafe variant — a mutator invocation
           between the two snapshots goes unnoticed. *)
        if not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then raise (Abort (key, s_ic, ic));
        (rest, frontier)
    | _, _ -> (unresolved, (key, ic) :: frontier)
  in
  match fold_entries t entry ([], []) with
  | unresolved, frontier -> Match { unresolved = List.rev unresolved; frontier = List.rev frontier }
  | exception Abort (key, source_ic, target_ic) -> Ic_abort { key; source_ic; target_ic }

type verdict = Conflict | Counts of { unresolved : int; frontier : int }

let verdict (t : t) =
  (* Same guard as [matching]: the skip_ic_guards mutant cancels
     conflicting entries instead of aborting. *)
  if t.conflicts > 0 && not (Adgc_util.Mc_mutate.enabled "skip_ic_guards") then Conflict
  else Counts { unresolved = t.unresolved; frontier = t.frontier }

(* ------------------------------------------------------------------ *)
(* Wire format *)

(* A [both] key with different ICs takes two entries. *)
let compact_length (t : t) = entry_width * (t.unresolved + t.frontier + t.both + t.conflicts)

let emit_entries s (t : t) = N.items s t.run

(* What [read_entries] has read so far. *)
type tally = {
  mutable unresolved : int;
  mutable frontier : int;
  mutable both : int;
  mutable conflicts : int;
  mutable width : int;  (** the bytes the items need *)
}

(* The items must be whole entries, bits must name a side, and keys
   must strictly ascend but for a conflict's two entries, bits 1 then
   2 with different ICs: the run is canonical, so it is kept as read.
   Only a varint written in more bytes than it needs is rewritten. *)
let read_entries r n =
  let n = R.entries r n ~fixed:0 ~width:entry_width "algebra" in
  let from = R.pos r in
  let c = { unresolved = 0; frontier = 0; both = 0; conflicts = 0; width = 0 } in
  let item () =
    let v = R.raw r in
    c.width <- c.width + W.uvarint_size v;
    v
  in
  let rec go k ~src ~owner ~serial ~ic ~bits =
    if k > 0 then begin
      let src' = item () in
      let owner' = item () in
      let serial' = item () in
      let icb = item () in
      let ic' = icb lsr 2 and bits' = icb land 3 in
      if bits' = 0 then R.fail r "bad presence bits";
      let order = compare3 src' owner' serial' src owner serial in
      if order > 0 then begin
        match bits' with
        | 1 -> c.unresolved <- c.unresolved + 1
        | 2 -> c.frontier <- c.frontier + 1
        | _ -> c.both <- c.both + 1
      end
      else if order = 0 && bits = 1 && bits' = 2 && ic <> ic' then begin
        c.unresolved <- c.unresolved - 1;
        c.both <- c.both + 1;
        c.conflicts <- c.conflicts + 1
      end
      else R.fail r "algebra entries out of order";
      go (k - 1) ~src:src' ~owner:owner' ~serial:serial' ~ic:ic' ~bits:bits'
    end
  in
  go n ~src:(-1) ~owner:(-1) ~serial:(-1) ~ic:(-1) ~bits:0;
  let run = R.since r from in
  let run =
    if String.length run = c.width then run
    else begin
      let w = W.Writer.create ~initial:c.width () in
      let rd = W.Reader.of_string run in
      while not (W.Reader.at_end rd) do
        W.Writer.uvarint w (W.Reader.uvarint rd)
      done;
      W.Writer.contents w
    end
  in
  { run; unresolved = c.unresolved; frontier = c.frontier; both = c.both; conflicts = c.conflicts }
