module Wire = Adgc_serial.Wire

(* Largest accepted payload: far beyond any protocol envelope, so a
   prefix claiming more is malformed framing, not a big message. *)
let max_frame = 16 * 1024 * 1024

let header_len = 4

let encode payload =
  let n = String.length payload in
  if n = 0 || n > max_frame then
    raise (Wire.Malformed { offset = 0; what = Printf.sprintf "unsendable frame length %d" n });
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* The pending buffer compacts lazily: [start] walks forward as frames
   complete and the live region slides back to offset 0 only when the
   dead prefix outgrows the live remainder, so a fast stream of small
   frames never memmoves per frame. *)
type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (** first unconsumed byte *)
  mutable len : int;  (** bytes valid from [start] *)
  mutable poisoned : string option;  (** sticky malformed-framing error *)
  mutable consumed : int;  (** total bytes consumed (error offsets) *)
}

let decoder () =
  { buf = Bytes.create 4096; start = 0; len = 0; poisoned = None; consumed = 0 }

let grow d need =
  let live = d.len in
  if d.start > 0 && Bytes.length d.buf - d.start < need + live then begin
    Bytes.blit d.buf d.start d.buf 0 live;
    d.start <- 0
  end;
  if Bytes.length d.buf - d.start - live < need then begin
    let cap = ref (Bytes.length d.buf * 2) in
    while !cap - live < need do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf d.start bigger 0 live;
    d.buf <- bigger;
    d.start <- 0
  end

let feed_sub d src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Frame.feed_sub: bad range";
  grow d len;
  Bytes.blit src off d.buf (d.start + d.len) len;
  d.len <- d.len + len

let poison d what =
  d.poisoned <- Some what;
  raise (Wire.Malformed { offset = d.consumed; what })

let next d =
  (match d.poisoned with
  | Some what -> raise (Wire.Malformed { offset = d.consumed; what })
  | None -> ());
  if d.len < header_len then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
    if n <= 0 || n > max_frame then
      poison d (Printf.sprintf "implausible frame length %d" n)
    else if d.len < header_len + n then None
    else begin
      let payload = Bytes.sub_string d.buf (d.start + header_len) n in
      d.start <- d.start + header_len + n;
      d.len <- d.len - header_len - n;
      d.consumed <- d.consumed + header_len + n;
      if d.len = 0 then d.start <- 0;
      Some payload
    end
  end
