module Wire = Adgc_serial.Wire

(* Long CLR-style type names, written on every node: a deliberate and
   honest source of volume and time, as in Rotor's self-describing
   serialization streams. *)
let type_name = function
  | Sval.Unit -> "System.Void, mscorlib, Version=1.0.3300.0"
  | Sval.Bool _ -> "System.Boolean, mscorlib, Version=1.0.3300.0"
  | Sval.Int _ -> "System.Int64, mscorlib, Version=1.0.3300.0"
  | Sval.Float _ -> "System.Double, mscorlib, Version=1.0.3300.0"
  | Sval.Str _ -> "System.String, mscorlib, Version=1.0.3300.0"
  | Sval.List _ -> "System.Collections.ArrayList, mscorlib, Version=1.0.3300.0"
  | Sval.Packed _ -> "System.Int64[], mscorlib, Version=1.0.3300.0"
  | Sval.Record _ -> "System.Runtime.Serialization.ObjectRecord, mscorlib, Version=1.0.3300.0"

let escape_char buf c =
  match c with
  | '&' -> Buffer.add_string buf "&amp;"
  | '<' -> Buffer.add_string buf "&lt;"
  | '>' -> Buffer.add_string buf "&gt;"
  | '"' -> Buffer.add_string buf "&quot;"
  | c when Char.code c < 0x20 || Char.code c >= 0x7F ->
      Buffer.add_string buf (Printf.sprintf "&#%d;" (Char.code c))
  | c -> Buffer.add_char buf c

let escape buf s = String.iter (escape_char buf) s

let indent buf depth =
  Buffer.add_char buf '\n';
  for _ = 1 to depth do
    Buffer.add_string buf "  "
  done

(* Every node also carries an assembly record, as .NET remoting SOAP
   streams do — a large, honest constant factor. *)
let assembly_record = "mscorlib, Version=1.0.3300.0, Culture=neutral, PublicKeyToken=b77a5c561934e089"

let emit_assembly buf depth =
  indent buf depth;
  Buffer.add_string buf "<a i=\"1\">";
  escape buf assembly_record;
  Buffer.add_string buf "</a>"

let rec emit buf depth v =
  emit_assembly buf depth;
  indent buf depth;
  Buffer.add_string buf "<v t=\"";
  escape buf (type_name v);
  Buffer.add_string buf "\"";
  match v with
  | Sval.Unit -> Buffer.add_string buf "/>"
  | Sval.Bool b ->
      Buffer.add_string buf ">";
      Buffer.add_string buf (if b then "true" else "false");
      Buffer.add_string buf "</v>"
  | Sval.Int i ->
      Buffer.add_string buf ">";
      Buffer.add_string buf (string_of_int i);
      Buffer.add_string buf "</v>"
  | Sval.Float f ->
      Buffer.add_string buf ">";
      (* %h round-trips doubles exactly, including nan and infinities. *)
      Buffer.add_string buf (Printf.sprintf "%h" f);
      Buffer.add_string buf "</v>"
  | Sval.Str s ->
      Buffer.add_string buf ">";
      escape buf s;
      Buffer.add_string buf "</v>"
  | Sval.List items ->
      Buffer.add_string buf (Printf.sprintf " n=\"%d\">" (List.length items));
      List.iter (fun item -> emit buf (depth + 1) item) items;
      indent buf depth;
      Buffer.add_string buf "</v>"
  | Sval.Packed ints ->
      (* An array of ints: each item a full Int node, as Rotor has no
         packed form. *)
      Buffer.add_string buf (Printf.sprintf " n=\"%d\">" (List.length ints));
      List.iter (fun i -> emit buf (depth + 1) (Sval.Int i)) ints;
      indent buf depth;
      Buffer.add_string buf "</v>"
  | Sval.Record (rname, fields) ->
      Buffer.add_string buf " name=\"";
      escape buf rname;
      Buffer.add_string buf (Printf.sprintf "\" n=\"%d\">" (List.length fields));
      List.iter
        (fun (k, fv) ->
          indent buf (depth + 1);
          Buffer.add_string buf "<f k=\"";
          escape buf k;
          Buffer.add_string buf "\">";
          emit buf (depth + 2) fv;
          indent buf (depth + 1);
          Buffer.add_string buf "</f>")
        fields;
      indent buf depth;
      Buffer.add_string buf "</v>"

(* FNV-1a over the document body; computed in a second full pass over
   the emitted text (Rotor also re-walked its streams). *)
let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let encode v =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<soap:Envelope xmlns:soap=\"urn:schemas-rotor-org:soap.v1\">";
  emit buf 1 v;
  Buffer.add_string buf "\n</soap:Envelope>";
  let body = Buffer.contents buf in
  Printf.sprintf "%s\n<!--crc:%Lx-->" body (checksum body)

(* ------------------------------------------------------------------ *)
(* Decoding: recursive-descent parser over the text format.            *)

type parser_state = { text : string; mutable pos : int }

let fail p what = raise (Wire.Malformed { offset = p.pos; what })

let peek p = if p.pos < String.length p.text then Some p.text.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  let continue = ref true in
  while !continue do
    match peek p with
    | Some (' ' | '\n' | '\t' | '\r') -> advance p
    | Some _ | None -> continue := false
  done

let eat p s =
  let n = String.length s in
  if p.pos + n <= String.length p.text && String.sub p.text p.pos n = s then p.pos <- p.pos + n
  else fail p ("expected " ^ s)

let looking_at p s =
  let n = String.length s in
  p.pos + n <= String.length p.text && String.sub p.text p.pos n = s

(* Read characters until [stop], unescaping entities. *)
let read_escaped p ~stop =
  let buf = Buffer.create 16 in
  let continue = ref true in
  while !continue do
    match peek p with
    | None -> fail p "unterminated text"
    | Some c when c = stop -> continue := false
    | Some '&' ->
        advance p;
        if looking_at p "amp;" then (eat p "amp;"; Buffer.add_char buf '&')
        else if looking_at p "lt;" then (eat p "lt;"; Buffer.add_char buf '<')
        else if looking_at p "gt;" then (eat p "gt;"; Buffer.add_char buf '>')
        else if looking_at p "quot;" then (eat p "quot;"; Buffer.add_char buf '"')
        else if looking_at p "#" then begin
          eat p "#";
          let start = p.pos in
          while (match peek p with Some ('0' .. '9') -> true | Some _ | None -> false) do
            advance p
          done;
          (match int_of_string_opt (String.sub p.text start (p.pos - start)) with
          | Some code when code >= 0 && code <= 255 ->
              eat p ";";
              Buffer.add_char buf (Char.chr code)
          | Some _ | None -> fail p "bad character entity")
        end
        else fail p "bad entity"
    | Some c ->
        advance p;
        Buffer.add_char buf c
  done;
  Buffer.contents buf

let read_attr p key =
  skip_ws p;
  eat p (key ^ "=\"");
  let v = read_escaped p ~stop:'"' in
  eat p "\"";
  v

let classify_type tname =
  if String.length tname >= 13 then
    match String.sub tname 7 6 with
    | "Void, " -> `Unit
    | "Boolea" -> `Bool
    | "Int64," -> `Int
    | "Int64[" -> `Packed
    | "Double" -> `Float
    | "String" -> `Str
    | "Collec" -> `List
    | "Runtim" -> `Record
    | _ -> `Bad
  else `Bad

let skip_assembly p =
  skip_ws p;
  if looking_at p "<a" then begin
    eat p "<a i=\"1\">";
    let record = read_escaped p ~stop:'<' in
    eat p "</a>";
    if not (String.equal record assembly_record) then fail p "bad assembly record"
  end

(* Every child element takes at least a few characters; a count beyond
   the remaining text is malformed. *)
let checked_count p s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= String.length p.text - p.pos -> n
  | Some _ | None -> fail p "implausible count"

let rec parse_value p =
  skip_assembly p;
  skip_ws p;
  eat p "<v";
  let tname = read_attr p "t" in
  match classify_type tname with
  | `Bad -> fail p ("unknown type " ^ tname)
  | `Unit ->
      skip_ws p;
      eat p "/>";
      Sval.Unit
  | `Bool ->
      skip_ws p;
      eat p ">";
      let body = read_escaped p ~stop:'<' in
      eat p "</v>";
      (match body with
      | "true" -> Sval.Bool true
      | "false" -> Sval.Bool false
      | _ -> fail p "bad boolean")
  | `Int ->
      skip_ws p;
      eat p ">";
      let body = read_escaped p ~stop:'<' in
      eat p "</v>";
      (match int_of_string_opt body with
      | Some i -> Sval.Int i
      | None -> fail p "bad integer")
  | `Float ->
      skip_ws p;
      eat p ">";
      let body = read_escaped p ~stop:'<' in
      eat p "</v>";
      (match float_of_string_opt body with
      | Some f -> Sval.Float f
      | None -> fail p "bad float")
  | `Str ->
      skip_ws p;
      eat p ">";
      let body = read_escaped p ~stop:'<' in
      eat p "</v>";
      Sval.Str body
  | `List ->
      let n = checked_count p (read_attr p "n") in
      skip_ws p;
      eat p ">";
      let items = List.init n (fun _ -> parse_value p) in
      skip_ws p;
      eat p "</v>";
      Sval.List items
  | `Packed ->
      let n = checked_count p (read_attr p "n") in
      skip_ws p;
      eat p ">";
      let item _ = match parse_value p with Sval.Int i -> i | _ -> fail p "bad array item" in
      let ints = List.init n item in
      skip_ws p;
      eat p "</v>";
      Sval.Packed ints
  | `Record ->
      let rname = read_attr p "name" in
      let n = checked_count p (read_attr p "n") in
      skip_ws p;
      eat p ">";
      let fields =
        List.init n (fun _ ->
            skip_ws p;
            eat p "<f";
            let k = read_attr p "k" in
            eat p ">";
            let v = parse_value p in
            skip_ws p;
            eat p "</f>";
            (k, v))
      in
      skip_ws p;
      eat p "</v>";
      Sval.Record (rname, fields)

let decode s =
  (* Verify the trailing checksum first (a full extra pass, as noted in
     the interface). *)
  let crc_start =
    match String.rindex_opt s '\n' with
    | Some i when i + 1 < String.length s && String.length s - i > 10 -> i
    | Some _ | None -> raise (Wire.Malformed { offset = 0; what = "missing checksum" })
  in
  let body = String.sub s 0 crc_start in
  let trailer = String.sub s (crc_start + 1) (String.length s - crc_start - 1) in
  let expected =
    try Scanf.sscanf trailer "<!--crc:%Lx-->" (fun x -> x)
    with Scanf.Scan_failure _ | End_of_file ->
      raise (Wire.Malformed { offset = crc_start; what = "bad checksum trailer" })
  in
  if not (Int64.equal (checksum body) expected) then
    raise (Wire.Malformed { offset = crc_start; what = "checksum mismatch" });
  let p = { text = body; pos = 0 } in
  eat p "<soap:Envelope xmlns:soap=\"urn:schemas-rotor-org:soap.v1\">";
  let v = parse_value p in
  skip_ws p;
  eat p "</soap:Envelope>";
  v
