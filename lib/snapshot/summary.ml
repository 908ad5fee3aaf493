open Adgc_algebra
module R = Adgc_serial.Net_codec.Read
module P = Adgc_serial.Net_codec.Peek

type t = {
  bytes : string;
  proc : Proc_id.t;
  taken_at : int;
  scion_at : int array; (* per scion, ascending key: offset of its key *)
  scion_flag : int array; (* ...and of its target-locally-reachable bool *)
  stub_at : int array; (* per stub, ascending target: offset of its target *)
  stub_flag : int array; (* ...and of its Local.Reach bool *)
}

(* ------------------------------------------------------------------ *)
(* The index pass: [Oid.read]/[Ref_key.read]'s checks, without building
   the ids, plus strict ascent of entries and runs. *)

(* The last id read in a sequence, as [(src, owner, serial)]; an id
   pair reads as [(0, owner, serial)]. *)
type last = { mutable src : int; mutable owner : int; mutable serial : int }

let restart last =
  last.src <- -1;
  last.owner <- -1;
  last.serial <- -1

let id r =
  let v = R.int r in
  if v < 0 then R.fail r "negative id";
  v

let pair r = if R.list r <> 2 then R.fail r "bad id pair"

(* Read a key, or an id pair unless [key], above [last]. *)
let read_ids r last ~key =
  pair r;
  let src =
    if key then begin
      let src = id r in
      pair r;
      src
    end
    else 0
  in
  let owner = id r in
  let serial = id r in
  if
    not
      (last.src < src
      || (last.src = src && (last.owner < owner || (last.owner = owner && last.serial < serial))))
  then R.fail r "out of order";
  last.src <- src;
  last.owner <- owner;
  last.serial <- serial

let of_bytes bytes =
  let r = R.of_string bytes in
  let entry = { src = -1; owner = -1; serial = -1 }
  and item = { src = -1; owner = -1; serial = -1 } in
  let index () =
    R.record r 4;
    let proc = id r in
    let taken_at = R.int r in
    let n = R.list r in
    let scion_at = Array.make n 0 and scion_flag = Array.make n 0 in
    for i = 0 to n - 1 do
      R.record r 5;
      scion_at.(i) <- R.pos r;
      read_ids r entry ~key:true;
      ignore (R.int r : int);
      restart item;
      for _ = 1 to R.list r do
        read_ids r item ~key:false
      done;
      scion_flag.(i) <- R.pos r;
      ignore (R.bool r : bool);
      ignore (R.int r : int)
    done;
    let n = R.list r in
    let stub_at = Array.make n 0 and stub_flag = Array.make n 0 in
    restart entry;
    for j = 0 to n - 1 do
      R.record r 4;
      stub_at.(j) <- R.pos r;
      read_ids r entry ~key:false;
      ignore (R.int r : int);
      restart item;
      for _ = 1 to R.list r do
        read_ids r item ~key:true
      done;
      stub_flag.(j) <- R.pos r;
      ignore (R.bool r : bool)
    done;
    R.finish r;
    { bytes; proc = Proc_id.of_int proc; taken_at; scion_at; scion_flag; stub_at; stub_flag }
  in
  match index () with t -> Some t | exception Adgc_serial.Wire.Malformed _ -> None

let bytes t = t.bytes

let proc t = t.proc

let taken_at t = t.taken_at

let counts t = (Array.length t.scion_at, Array.length t.stub_at)

(* ------------------------------------------------------------------ *)
(* Reading in place.  An int, and a list's header, is a tag byte and a
   varint: [next] steps past one and [int_at] reads one, inline when
   the varint is one byte (an id or count below 64) and through
   [Peek] otherwise.  An id pair is a list header followed by two ints;
   a key is a list header, its [src] int and its target pair. *)

let[@inline] next s p =
  if Char.code (String.unsafe_get s (p + 1)) < 0x80 then p + 2 else P.after s p

let[@inline] int_at s p =
  let z = Char.code (String.unsafe_get s (p + 1)) in
  if z < 0x80 then (z lsr 1) lxor (-(z land 1)) else P.int s p

let oid_at s p =
  let owner = next s p in
  Oid.make ~owner:(Proc_id.of_int (int_at s owner)) ~serial:(int_at s (next s owner))

let oid_end s p = next s (next s (next s p))

let key_at s p =
  let src = next s p in
  Ref_key.make ~src:(Proc_id.of_int (int_at s src)) ~target:(oid_at s (next s src))

let key_end s p = oid_end s (next s (next s p))

(* [compare o] against the id pair at [p]. *)
let compare_oid s p (o : Oid.t) =
  let owner = next s p in
  let c = Int.compare (Proc_id.to_int o.Oid.owner) (int_at s owner) in
  if c <> 0 then c else Int.compare o.Oid.serial (int_at s (next s owner))

let compare_key s p (k : Ref_key.t) =
  let src = next s p in
  let c = Int.compare (Proc_id.to_int k.Ref_key.src) (int_at s src) in
  if c <> 0 then c else compare_oid s (next s src) k.Ref_key.target

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

let scion_ic t i = int_at t.bytes (key_end t.bytes t.scion_at.(i))

let target_locally_reachable t i = P.bool t.bytes t.scion_flag.(i)

let last_invoked t i = int_at t.bytes (t.scion_flag.(i) + 1)

(* A run's items lie between its list header and the entry's flag. *)
let rec fold_oids s p stop f acc =
  if p >= stop then acc else fold_oids s (oid_end s p) stop f (f (oid_at s p) acc)

let rec fold_keys s p stop f acc =
  if p >= stop then acc else fold_keys s (key_end s p) stop f (f (key_at s p) acc)

let fold_stubs_from t i f acc =
  let s = t.bytes in
  let run = next s (key_end s t.scion_at.(i)) in
  fold_oids s (next s run) t.scion_flag.(i) f acc

let find_stub t o = found (search compare_oid t.bytes t.stub_at o 0 (Array.length t.stub_at))

let stub_target t j = oid_at t.bytes t.stub_at.(j)

let stub_ic t j = int_at t.bytes (oid_end t.bytes t.stub_at.(j))

let local_reach t j = P.bool t.bytes t.stub_flag.(j)

let fold_scions_to t j f acc =
  let s = t.bytes in
  let run = next s (oid_end s t.stub_at.(j)) in
  fold_keys s (next s run) t.stub_flag.(j) f acc
