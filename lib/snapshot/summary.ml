open Adgc_algebra
module R = Adgc_serial.Net_codec.Read

type t = {
  bytes : string;
  proc : Proc_id.t;
  taken_at : int;
  scion_at : int array; (* per scion, ascending key: offset of its key *)
  scion_flag : int array; (* ...and of its [last_invoked·2 + flag] *)
  stub_at : int array; (* per stub, ascending target: offset of its target *)
}

let indexed ~proc ~taken_at ~scion_at ~scion_flag ~stub_at bytes =
  { bytes; proc; taken_at; scion_at; scion_flag; stub_at }

(* ------------------------------------------------------------------ *)
(* The index pass: every item of the run read and counted, every id
   sequence checked for strict ascent. *)

(* The last id read in a sequence, as [(src, owner, serial)]; an id
   pair reads as [(0, owner, serial)]. *)
type last = { mutable src : int; mutable owner : int; mutable serial : int }

let restart last =
  last.src <- -1;
  last.owner <- -1;
  last.serial <- -1

type cursor = { r : R.t; mutable left : int (* items of the run not yet read *) }

let raw c =
  if c.left = 0 then R.fail c.r "run too short";
  c.left <- c.left - 1;
  R.raw c.r

(* A count of what follows, each at least one item. *)
let count c =
  let n = raw c in
  if n > c.left then R.fail c.r "implausible count";
  n

(* Read a key, or an id pair unless [key], above [last]. *)
let read_ids c last ~key =
  let src = if key then raw c else 0 in
  let owner = raw c in
  let serial = raw c in
  if
    not
      (last.src < src
      || (last.src = src && (last.owner < owner || (last.owner = owner && last.serial < serial))))
  then R.fail c.r "out of order";
  last.src <- src;
  last.owner <- owner;
  last.serial <- serial

let of_bytes bytes =
  let r = R.of_string bytes in
  let entry = { src = -1; owner = -1; serial = -1 }
  and item = { src = -1; owner = -1; serial = -1 } in
  let index () =
    let c = { r; left = R.packed r } in
    let proc = raw c in
    let taken_at = raw c in
    let n = count c in
    let scion_at = Array.make n 0 and scion_flag = Array.make n 0 in
    for i = 0 to n - 1 do
      scion_at.(i) <- R.pos r;
      read_ids c entry ~key:true;
      ignore (raw c : int);
      restart item;
      for _ = 1 to count c do
        read_ids c item ~key:false
      done;
      scion_flag.(i) <- R.pos r;
      ignore (raw c : int)
    done;
    let n = count c in
    let stub_at = Array.make n 0 in
    restart entry;
    for j = 0 to n - 1 do
      stub_at.(j) <- R.pos r;
      read_ids c entry ~key:false;
      ignore (raw c : int);
      restart item;
      for _ = 1 to count c do
        read_ids c item ~key:true
      done
    done;
    if c.left > 0 then R.fail r "run too long";
    R.finish r;
    indexed ~proc:(Proc_id.of_int proc) ~taken_at ~scion_at ~scion_flag ~stub_at bytes
  in
  match index () with t -> Some t | exception Adgc_serial.Wire.Malformed _ -> None

let bytes t = t.bytes

let proc t = t.proc

let taken_at t = t.taken_at

let counts t = (Array.length t.scion_at, Array.length t.stub_at)

(* ------------------------------------------------------------------ *)
(* Reading in place.  Every item is an unsigned LEB128 varint the index
   pass (or the writer) has bounded: [next] steps past one and [at]
   reads one, inline when it is one byte (below 128).  An id pair is
   two items, a key three. *)

let rec next s p = if Char.code (String.unsafe_get s p) < 0x80 then p + 1 else next s (p + 1)

let rec uvarint_from s p shift acc =
  let b = Char.code (String.unsafe_get s p) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then acc else uvarint_from s (p + 1) (shift + 7) acc

let[@inline] at s p =
  let b = Char.code (String.unsafe_get s p) in
  if b < 0x80 then b else uvarint_from s p 0 0

let oid_at s p = Oid.make ~owner:(Proc_id.of_int (at s p)) ~serial:(at s (next s p))

let oid_end s p = next s (next s p)

let key_at s p = Ref_key.make ~src:(Proc_id.of_int (at s p)) ~target:(oid_at s (next s p))

let key_end s p = oid_end s (next s p)

(* [compare o] against the id pair at [p]. *)
let compare_oid s p (o : Oid.t) =
  let c = Int.compare (Proc_id.to_int o.Oid.owner) (at s p) in
  if c <> 0 then c else Int.compare o.Oid.serial (at s (next s p))

let compare_key s p (k : Ref_key.t) =
  let c = Int.compare (Proc_id.to_int k.Ref_key.src) (at s p) in
  if c <> 0 then c else compare_oid s (next s p) k.Ref_key.target

(* The rank of [k] in [offsets], or [-(insertion point) - 1].  Every
   argument is passed down, so a search builds no closure. *)
let rec search compare s offsets k lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare s offsets.(mid) k in
    if c = 0 then mid
    else if c < 0 then search compare s offsets k lo mid
    else search compare s offsets k (mid + 1) hi

let found i = if i >= 0 then Some i else None

let find_scion t k = found (search compare_key t.bytes t.scion_at k 0 (Array.length t.scion_at))

let scion_after t k =
  let i = search compare_key t.bytes t.scion_at k 0 (Array.length t.scion_at) in
  if i >= 0 then i + 1 else -i - 1

let scion_key t i = key_at t.bytes t.scion_at.(i)

let scion_ic t i = at t.bytes (key_end t.bytes t.scion_at.(i))

let target_locally_reachable t i = at t.bytes t.scion_flag.(i) land 1 = 1

let last_invoked t i = at t.bytes t.scion_flag.(i) lsr 1

(* A run of [n] ids from [p]. *)
let rec fold_oids s p n f acc =
  if n = 0 then acc else fold_oids s (oid_end s p) (n - 1) f (f (oid_at s p) acc)

let rec fold_keys s p n f acc =
  if n = 0 then acc else fold_keys s (key_end s p) (n - 1) f (f (key_at s p) acc)

let fold_stubs_from t i f acc =
  let s = t.bytes in
  let run = next s (key_end s t.scion_at.(i)) in
  fold_oids s (next s run) (at s run) f acc

let find_stub t o = found (search compare_oid t.bytes t.stub_at o 0 (Array.length t.stub_at))

let stub_target t j = oid_at t.bytes t.stub_at.(j)

let stub_ic t j = at t.bytes (oid_end t.bytes t.stub_at.(j)) lsr 1

let local_reach t j = at t.bytes (oid_end t.bytes t.stub_at.(j)) land 1 = 1

let fold_scions_to t j f acc =
  let s = t.bytes in
  let run = next s (oid_end s t.stub_at.(j)) in
  fold_keys s (next s run) (at s run) f acc
