module Wire = Adgc_serial.Wire

let tag_unit = 0
let tag_bool_false = 1
let tag_bool_true = 2
let tag_int = 3
let tag_float = 4
let tag_str = 5
let tag_list = 6
let tag_record = 7
let tag_packed = 8

let write_int64 w v =
  for i = 0 to 7 do
    Wire.Writer.byte w (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let read_int64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (Wire.Reader.byte r)) (8 * i))
  done;
  !v

let write_float w v = write_int64 w (Int64.bits_of_float v)

let read_float r = Int64.float_of_bits (read_int64 r)

(* Named records, each distinct record or field name written once per
   document — as [size-of-table] then the text — and later as its
   index. *)

let encode (v : Sval.t) =
  let w = Wire.Writer.create ~initial:1024 () in
  let names : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let name n =
    match Hashtbl.find_opt names n with
    | Some i -> Wire.Writer.varint w i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names n i;
        Wire.Writer.varint w i;
        Wire.Writer.string w n
  in
  let rec sval : Sval.t -> unit = function
    | Unit -> Wire.Writer.byte w tag_unit
    | Bool b -> Wire.Writer.byte w (if b then tag_bool_true else tag_bool_false)
    | Int i ->
        Wire.Writer.byte w tag_int;
        Wire.Writer.varint w i
    | Float f ->
        Wire.Writer.byte w tag_float;
        write_float w f
    | Str v ->
        Wire.Writer.byte w tag_str;
        Wire.Writer.string w v
    | List items ->
        Wire.Writer.byte w tag_list;
        Wire.Writer.varint w (List.length items);
        List.iter sval items
    | Packed ints ->
        Wire.Writer.byte w tag_packed;
        Wire.Writer.varint w (List.length ints);
        List.iter (Wire.Writer.varint w) ints
    | Record (rname, fields) ->
        Wire.Writer.byte w tag_record;
        name rname;
        Wire.Writer.varint w (List.length fields);
        List.iter
          (fun (k, fv) ->
            name k;
            sval fv)
          fields
  in
  sval v;
  Wire.Writer.contents w

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
  else if tag = tag_float then Float (read_float r)
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
