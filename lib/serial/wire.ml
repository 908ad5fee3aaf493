exception Malformed of { offset : int; what : string }

let malformed offset what = raise (Malformed { offset; what })

(* Zigzag so that small negative values encode in one byte. *)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))

(* LEB128 length of a 63-bit pattern, read as unsigned. *)
let bits_size z =
  let rec go z n = if z lsr 7 = 0 then n else go (z lsr 7) (n + 1) in
  go z 1

let varint_size v = bits_size (zigzag v)

let uvarint_size v =
  if v < 0 then invalid_arg "Wire.uvarint_size: negative";
  bits_size v

module Writer = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial

  let contents = Buffer.contents

  let clear = Buffer.clear

  let length = Buffer.length

  let byte t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let rec bits t z =
    if z lsr 7 = 0 then byte t z
    else begin
      byte t ((z land 0x7F) lor 0x80);
      bits t (z lsr 7)
    end

  let varint t v = bits t (zigzag v)

  let uvarint t v =
    if v < 0 then invalid_arg "Wire.Writer.uvarint: negative";
    bits t v

  let raw t s = Buffer.add_string t s

  let substring t s pos len = Buffer.add_substring t s pos len

  let string t s =
    varint t (String.length s);
    raw t s
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let pos t = t.pos

  let at_end t = t.pos >= String.length t.data

  let remaining t = Int.max 0 (String.length t.data - t.pos)

  let byte t =
    if at_end t then malformed t.pos "unexpected end of input";
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let unzigzag v = (v lsr 1) lxor (-(v land 1))

  (* [t] is passed down rather than captured, so reading a varint
     allocates no closure. *)
  let rec varint_from t shift acc =
    if shift > Sys.int_size then malformed t.pos "varint too long";
    let b = byte t in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = unzigzag (varint_from t 0 0)

  (* At most nine bytes, and no bit past the 62 a non-negative int
     holds: the ninth byte carries six. *)
  let rec uvarint_from t shift acc =
    let b = byte t in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then begin
      if acc < 0 then malformed t.pos "unsigned varint out of range";
      acc
    end
    else if shift >= 56 then malformed t.pos "varint too long"
    else uvarint_from t (shift + 7) acc

  let uvarint t = uvarint_from t 0 0

  let raw t n =
    if n < 0 || t.pos + n > String.length t.data then
      malformed t.pos "raw read past end of input";
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let string t =
    let n = varint t in
    raw t n

  let since t from = String.sub t.data from (t.pos - from)
end
