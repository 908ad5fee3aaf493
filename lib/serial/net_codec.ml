let name = "net"

let tag_unit = 0
let tag_bool_false = 1
let tag_bool_true = 2
let tag_int = 3
let tag_float = 4
let tag_str = 5
let tag_list = 6
let tag_record = 7
let tag_packed = 8

module Name = struct
  type t = { id : int; text : string }

  (* Ids are dense, so a writer's interning state is an array indexed
     by id.  The registry is only consulted when a name is made — at
     module initialisation for the wire types, per name when a tree is
     replayed — never on a shape's hot path. *)
  let registry : (string, t) Hashtbl.t = Hashtbl.create 256

  let lock = Mutex.create ()

  let v text =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt registry text with
        | Some n -> n
        | None ->
            let n = { id = Hashtbl.length registry; text } in
            Hashtbl.add registry text n;
            n)
end

(* ------------------------------------------------------------------ *)
(* The streaming writer *)

type mode = Count | Write

type sink = {
  mode : mode;
  buf : Wire.Writer.t;  (** [Write] *)
  mutable bytes : int;  (** [Count] *)
  (* Interning: a name's index is [slot.(id)] when [stamp.(id)] is the
     current epoch.  A new message bumps the epoch instead of clearing
     the arrays; a connection-scoped writer never does. *)
  mutable stamp : int array;
  mutable slot : int array;
  mutable epoch : int;
  mutable next : int;
}

type 'a shape = sink -> 'a -> unit

let make mode =
  {
    mode;
    buf = Wire.Writer.create ~initial:(if mode = Write then 1024 else 1) ();
    bytes = 0;
    stamp = Array.make 64 0;
    slot = Array.make 64 0;
    epoch = 1;
    next = 0;
  }

(* A fresh value: new interning epoch, empty output. *)
let start s =
  s.epoch <- s.epoch + 1;
  s.next <- 0;
  s.bytes <- 0;
  Wire.Writer.clear s.buf

let raw_byte s b =
  match s.mode with Count -> s.bytes <- s.bytes + 1 | Write -> Wire.Writer.byte s.buf b

let raw_varint s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + Wire.varint_size v
  | Write -> Wire.Writer.varint s.buf v

(* Interned names: the first occurrence is written as [size-of-table]
   followed by the string; later occurrences as their index. *)
let write_name s (n : Name.t) =
  let id = n.Name.id in
  if id >= Array.length s.stamp then begin
    let len = Int.max (id + 1) (2 * Array.length s.stamp) in
    let grow a = Array.append a (Array.make (len - Array.length a) 0) in
    s.stamp <- grow s.stamp;
    s.slot <- grow s.slot
  end;
  if s.stamp.(id) = s.epoch then raw_varint s s.slot.(id)
  else begin
    s.stamp.(id) <- s.epoch;
    s.slot.(id) <- s.next;
    raw_varint s s.next;
    s.next <- s.next + 1;
    match s.mode with
    | Count ->
        let len = String.length n.Name.text in
        s.bytes <- s.bytes + Wire.varint_size len + len
    | Write -> Wire.Writer.string s.buf n.Name.text
  end

let record s n k =
  raw_byte s tag_record;
  write_name s n;
  raw_varint s k

let field = write_name

let list s k =
  raw_byte s tag_list;
  raw_varint s k

(* A packed run: the tag and item count once, then bare varints. *)
let packed s k =
  raw_byte s tag_packed;
  raw_varint s k

let raw = raw_varint

let int s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + 1 + Wire.varint_size v
  | Write ->
      Wire.Writer.byte s.buf tag_int;
      Wire.Writer.varint s.buf v

let bool s b = raw_byte s (if b then tag_bool_true else tag_bool_false)

let unit s = raw_byte s tag_unit

let float s f =
  match s.mode with
  | Count -> s.bytes <- s.bytes + 9
  | Write ->
      Wire.Writer.byte s.buf tag_float;
      Wire.Writer.float s.buf f

let str s v =
  match s.mode with
  | Count ->
      let len = String.length v in
      s.bytes <- s.bytes + 1 + Wire.varint_size len + len
  | Write ->
      Wire.Writer.byte s.buf tag_str;
      Wire.Writer.string s.buf v

(* A tree replayed as events: how [encode] writes an arbitrary
   document. *)
let rec sval s (v : Sval.t) =
  match v with
  | Unit -> unit s
  | Bool b -> bool s b
  | Int i -> int s i
  | Float f -> float s f
  | Str v -> str s v
  | List items ->
      list s (List.length items);
      List.iter (sval s) items
  | Packed ints ->
      packed s (List.length ints);
      List.iter (raw s) ints
  | Record (rname, fields) ->
      record s (Name.v rname) (List.length fields);
      List.iter
        (fun (k, fv) ->
          field s (Name.v k);
          sval s fv)
        fields

(* One reused writer and one counter; each use starts a fresh value,
   so a shape must not itself encode or size. *)
let writer = make Write

let counter = make Count

let encode_shape shape v =
  start writer;
  shape writer v;
  Wire.Writer.contents writer.buf

let size shape v =
  start counter;
  shape counter v;
  counter.bytes

let encode v = encode_shape sval v

(* ------------------------------------------------------------------ *)
(* Decoding *)

type intern_r = { mutable names : string array; mutable count : int }

let read_name r intern =
  let idx = Wire.Reader.varint r in
  if idx < 0 then raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "negative intern index" })
  else if idx < intern.count then intern.names.(idx)
  else if idx = intern.count then begin
    let s = Wire.Reader.string r in
    if intern.count = Array.length intern.names then begin
      let bigger = Array.make (Int.max 16 (2 * intern.count)) "" in
      Array.blit intern.names 0 bigger 0 intern.count;
      intern.names <- bigger
    end;
    intern.names.(intern.count) <- s;
    intern.count <- intern.count + 1;
    s
  end
  else raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "bad intern index" })

(* Each element costs at least one byte, so a length beyond the
   remaining input is malformed — checked up front rather than letting
   a huge claimed length allocate unboundedly. *)
let checked_length r =
  let n = Wire.Reader.varint r in
  if n < 0 || n > Wire.Reader.remaining r then
    raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "implausible length" });
  n

let rec read r intern : Sval.t =
  let tag = Wire.Reader.byte r in
  if tag = tag_unit then Unit
  else if tag = tag_bool_false then Bool false
  else if tag = tag_bool_true then Bool true
  else if tag = tag_int then Int (Wire.Reader.varint r)
  else if tag = tag_float then Float (Wire.Reader.float r)
  else if tag = tag_str then Str (Wire.Reader.string r)
  else if tag = tag_list then begin
    let n = checked_length r in
    List (List.init n (fun _ -> read r intern))
  end
  else if tag = tag_packed then begin
    let n = checked_length r in
    Packed (List.init n (fun _ -> Wire.Reader.varint r))
  end
  else if tag = tag_record then begin
    let rname = read_name r intern in
    let n = checked_length r in
    let fields =
      List.init n (fun _ ->
          let k = read_name r intern in
          let v = read r intern in
          (k, v))
    in
    Record (rname, fields)
  end
  else raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "bad tag" })

let decode s =
  let r = Wire.Reader.of_string s in
  let intern = { names = [||]; count = 0 } in
  let v = read r intern in
  if not (Wire.Reader.at_end r) then
    raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "trailing bytes" });
  v

module Read = struct
  (* [ids.(i)] is the name id interned at index [i].  Only names that
     matched what the shape expected are ever interned, so comparing
     ids is comparing texts.  A stream reader keeps [ids] across
     frames and swaps [r] per frame. *)
  type t = { mutable r : Wire.Reader.t; mutable ids : int array; mutable count : int }

  let of_string s = { r = Wire.Reader.of_string s; ids = Array.make 16 0; count = 0 }

  let fail t what = raise (Wire.Malformed { offset = Wire.Reader.pos t.r; what })

  let tag t expected = if Wire.Reader.byte t.r <> expected then fail t "unexpected tag"

  let intern t (n : Name.t) =
    if t.count = Array.length t.ids then t.ids <- Array.append t.ids (Array.make t.count 0);
    t.ids.(t.count) <- n.Name.id;
    t.count <- t.count + 1

  (* The next name, which must be [name_of cases.(i)] for some [i]:
     returns [i]. *)
  let name_in t name_of cases =
    let find p =
      let rec go i =
        if i = Array.length cases then fail t "unexpected name"
        else if p (name_of cases.(i)) then i
        else go (i + 1)
      in
      go 0
    in
    let idx = Wire.Reader.varint t.r in
    if idx >= 0 && idx < t.count then find (fun (n : Name.t) -> n.Name.id = t.ids.(idx))
    else if idx = t.count then begin
      let text = Wire.Reader.string t.r in
      let i = find (fun (n : Name.t) -> String.equal n.Name.text text) in
      intern t (name_of cases.(i));
      i
    end
    else fail t "bad intern index"

  let name t (n : Name.t) =
    let idx = Wire.Reader.varint t.r in
    if idx >= 0 && idx < t.count then begin
      if t.ids.(idx) <> n.Name.id then fail t "unexpected name"
    end
    else if idx = t.count then begin
      if not (String.equal (Wire.Reader.string t.r) n.Name.text) then fail t "unexpected name";
      intern t n
    end
    else fail t "bad intern index"

  let count t k = if Wire.Reader.varint t.r <> k then fail t "unexpected field count"

  let record t n k =
    tag t tag_record;
    name t n;
    count t k

  let variant t cases =
    tag t tag_record;
    let i = name_in t fst cases in
    count t (snd cases.(i));
    i

  let field = name

  let int t =
    tag t tag_int;
    Wire.Reader.varint t.r

  let bool t =
    let b = Wire.Reader.byte t.r in
    if b = tag_bool_true then true else if b = tag_bool_false then false else fail t "unexpected tag"

  let str t =
    tag t tag_str;
    Wire.Reader.string t.r

  let list t =
    tag t tag_list;
    checked_length t.r

  let packed t =
    tag t tag_packed;
    checked_length t.r

  let raw t = Wire.Reader.varint t.r

  let finish t = if not (Wire.Reader.at_end t.r) then fail t "trailing bytes"

  let run read bytes =
    let t = of_string bytes in
    let v = read t in
    finish t;
    v
end

(* Per-connection interning: the same writer and reader, but the
   intern tables outlive individual values, so a long-lived ordered
   stream (one TCP/Unix connection) sends each record/field name once
   for the whole connection instead of once per frame.  Sound only
   over a lossless, ordered transport — a skipped or reordered frame
   would desynchronize the two tables, which is why [encode_shape] and
   [Read.run] keep per-message tables. *)
module Stream = struct
  type writer = sink

  let writer () = make Write

  let encode s shape v =
    Wire.Writer.clear s.buf;
    shape s v;
    Wire.Writer.contents s.buf

  type reader = Read.t

  let reader () = Read.of_string ""

  let read (t : reader) read frame =
    t.r <- Wire.Reader.of_string frame;
    let v = read t in
    Read.finish t;
    v
end
