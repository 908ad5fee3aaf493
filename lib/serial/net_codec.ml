(* A run and a string are the only two tags.  Their values are in
   every message and summary byte already pinned, so they stay. *)
let tag_str = 5
let tag_packed = 8

(* ------------------------------------------------------------------ *)
(* The streaming writer *)

type mode = Count | Write

type sink = { mode : mode; buf : Wire.Writer.t  (** [Write] *); mutable bytes : int  (** [Count] *) }

type 'a shape = sink -> 'a -> unit

let make mode =
  { mode; buf = Wire.Writer.create ~initial:(if mode = Write then 1024 else 1) (); bytes = 0 }

let raw s v =
  match s.mode with
  | Count -> s.bytes <- s.bytes + Wire.uvarint_size v
  | Write -> Wire.Writer.uvarint s.buf v

(* A packed run: the tag and item count once, then bare unsigned
   varints. *)
let packed s k =
  (match s.mode with Count -> s.bytes <- s.bytes + 1 | Write -> Wire.Writer.byte s.buf tag_packed);
  raw s k

(* Pre-encoded items: their bytes as they are, counted by length. *)
let items s bytes =
  match s.mode with
  | Count -> s.bytes <- s.bytes + String.length bytes
  | Write -> Wire.Writer.substring s.buf bytes 0 (String.length bytes)

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

module Read = struct
  type t = Wire.Reader.t

  let of_string = Wire.Reader.of_string

  let pos = Wire.Reader.pos

  let fail t what = raise (Wire.Malformed { offset = Wire.Reader.pos t; what })

  let tag t expected = if Wire.Reader.byte t <> expected then fail t "unexpected tag"

  let str t =
    tag t tag_str;
    Wire.Reader.string t

  (* Each item costs at least one byte, so a count beyond the
     remaining input is malformed — checked up front rather than
     letting a huge claimed count allocate unboundedly. *)
  let packed t =
    tag t tag_packed;
    let n = Wire.Reader.uvarint t in
    if n > Wire.Reader.remaining t then fail t "implausible length";
    n

  let raw = Wire.Reader.uvarint

  let since = Wire.Reader.since

  let entries t k ~fixed ~width what =
    if k < fixed || (k - fixed) mod width <> 0 then fail t ("ragged " ^ what ^ " run");
    (k - fixed) / width

  let finish t = if not (Wire.Reader.at_end t) then fail t "trailing bytes"

  let run read bytes =
    let t = of_string bytes in
    let v = read t in
    finish t;
    v
end
