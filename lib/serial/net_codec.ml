(* Tags 0, 4 and 7 are free: the wire carries no unit, float or named
   record. *)
let tag_bool_false = 1
let tag_bool_true = 2
let tag_int = 3
let tag_str = 5
let tag_list = 6
let tag_packed = 8
let tag_tuple = 9
let tag_variant = 10

(* ------------------------------------------------------------------ *)
(* The streaming writer *)

type mode = Count | Write

type sink = { mode : mode; buf : Wire.Writer.t  (** [Write] *); mutable bytes : int  (** [Count] *) }

type 'a shape = sink -> 'a -> unit

let make mode =
  { mode; buf = Wire.Writer.create ~initial:(if mode = Write then 1024 else 1) (); bytes = 0 }

let raw_byte s b =
  match s.mode with Count -> s.bytes <- s.bytes + 1 | Write -> Wire.Writer.byte s.buf b

let raw_varint s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + Wire.varint_size v
  | Write -> Wire.Writer.varint s.buf v

let record s k =
  raw_byte s tag_tuple;
  raw_varint s k

let variant s i k =
  raw_byte s tag_variant;
  raw_varint s i;
  raw_varint s k

let list s k =
  raw_byte s tag_list;
  raw_varint s k

let raw s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + Wire.uvarint_size v
  | Write -> Wire.Writer.uvarint s.buf v

(* A packed run: the tag and item count once, then bare unsigned
   varints. *)
let packed s k =
  raw_byte s tag_packed;
  raw s k

let int s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + 1 + Wire.varint_size v
  | Write ->
      Wire.Writer.byte s.buf tag_int;
      Wire.Writer.varint s.buf v

let bool s b = raw_byte s (if b then tag_bool_true else tag_bool_false)

let str s v =
  match s.mode with
  | Count ->
      let len = String.length v in
      s.bytes <- s.bytes + 1 + Wire.varint_size len + len
  | Write ->
      Wire.Writer.byte s.buf tag_str;
      Wire.Writer.string s.buf v

(* One reused writer and one counter; each use starts a fresh value,
   so a shape must not itself encode or size. *)
let writer = make Write

let counter = make Count

let encode_shape shape v =
  Wire.Writer.clear writer.buf;
  shape writer v;
  Wire.Writer.contents writer.buf

let offset s = match s.mode with Count -> s.bytes | Write -> Wire.Writer.length s.buf

let size shape v =
  counter.bytes <- 0;
  shape counter v;
  counter.bytes

(* ------------------------------------------------------------------ *)
(* The direct reader *)

(* Each element costs at least one byte, so a length beyond the
   remaining input is malformed — checked up front rather than letting
   a huge claimed length allocate unboundedly. *)
let plausible r n =
  if n < 0 || n > Wire.Reader.remaining r then
    raise (Wire.Malformed { offset = Wire.Reader.pos r; what = "implausible length" });
  n

let checked_length r = plausible r (Wire.Reader.varint r)

module Read = struct
  type t = Wire.Reader.t

  let of_string = Wire.Reader.of_string

  let pos = Wire.Reader.pos

  let fail t what = raise (Wire.Malformed { offset = Wire.Reader.pos t; what })

  let tag t expected = if Wire.Reader.byte t <> expected then fail t "unexpected tag"

  let arity t k = if Wire.Reader.varint t <> k then fail t "unexpected field count"

  let record t k =
    tag t tag_tuple;
    arity t k

  let variant t arities =
    tag t tag_variant;
    let i = Wire.Reader.varint t in
    if i < 0 || i >= Array.length arities then fail t "bad case index";
    arity t arities.(i);
    i

  let int t =
    tag t tag_int;
    Wire.Reader.varint t

  let bool t =
    let b = Wire.Reader.byte t in
    if b = tag_bool_true then true else if b = tag_bool_false then false else fail t "unexpected tag"

  let str t =
    tag t tag_str;
    Wire.Reader.string t

  let list t =
    tag t tag_list;
    checked_length t

  let packed t =
    tag t tag_packed;
    plausible t (Wire.Reader.uvarint t)

  let raw = Wire.Reader.uvarint

  let finish t = if not (Wire.Reader.at_end t) then fail t "trailing bytes"

  let run read bytes =
    let t = of_string bytes in
    let v = read t in
    finish t;
    v
end
