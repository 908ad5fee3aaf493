type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let obj_sorted fields = Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

(* NaN and infinities have no JSON spelling; exporters map them to
   null so a dump is always parseable. *)
let of_float f = if Float.is_nan f || Float.abs f = Float.infinity then Null else Float f

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal form that still round-trips a float; the fixed
   algorithm (not locale- or platform-format dependent) is what makes
   two identical runs dump byte-identical documents. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write buf v
  | Arr [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (String.make (indent + 2) ' ');
          write_pretty buf (indent + 2) v)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (String.make (indent + 2) ' ');
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write_pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; enough for our own dumps and schemas).  *)

exception Parse_error of int * string

type ps = { text : string; mutable pos : int }

let perror p what = raise (Parse_error (p.pos, what))

let peek p = if p.pos < String.length p.text then Some p.text.[p.pos] else None

let skip_ws p =
  let continue = ref true in
  while !continue do
    match peek p with
    | Some (' ' | '\n' | '\t' | '\r') -> p.pos <- p.pos + 1
    | Some _ | None -> continue := false
  done

let eat p c =
  match peek p with
  | Some d when d = c -> p.pos <- p.pos + 1
  | Some _ | None -> perror p (Printf.sprintf "expected %C" c)

let eat_lit p s =
  let n = String.length s in
  if p.pos + n <= String.length p.text && String.sub p.text p.pos n = s then p.pos <- p.pos + n
  else perror p ("expected " ^ s)

let parse_string_body p =
  let buf = Buffer.create 16 in
  let continue = ref true in
  while !continue do
    match peek p with
    | None -> perror p "unterminated string"
    | Some '"' ->
        p.pos <- p.pos + 1;
        continue := false
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | Some '"' -> p.pos <- p.pos + 1; Buffer.add_char buf '"'
        | Some '\\' -> p.pos <- p.pos + 1; Buffer.add_char buf '\\'
        | Some '/' -> p.pos <- p.pos + 1; Buffer.add_char buf '/'
        | Some 'n' -> p.pos <- p.pos + 1; Buffer.add_char buf '\n'
        | Some 't' -> p.pos <- p.pos + 1; Buffer.add_char buf '\t'
        | Some 'r' -> p.pos <- p.pos + 1; Buffer.add_char buf '\r'
        | Some 'b' -> p.pos <- p.pos + 1; Buffer.add_char buf '\b'
        | Some 'f' -> p.pos <- p.pos + 1; Buffer.add_char buf '\012'
        | Some 'u' ->
            p.pos <- p.pos + 1;
            if p.pos + 4 > String.length p.text then perror p "bad \\u escape";
            let hex = String.sub p.text p.pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 ->
                p.pos <- p.pos + 4;
                Buffer.add_char buf (Char.chr code)
            | Some code ->
                (* Encode as UTF-8; surrogate pairs are not recombined
                   (our own dumps never emit them). *)
                p.pos <- p.pos + 4;
                if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | None -> perror p "bad \\u escape")
        | Some _ | None -> perror p "bad escape")
    | Some c ->
        p.pos <- p.pos + 1;
        Buffer.add_char buf c
  done;
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek p with Some c when is_num_char c -> true | Some _ | None -> false) do
    p.pos <- p.pos + 1
  done;
  let s = String.sub p.text start (p.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> perror p ("bad number " ^ s))

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> perror p "unexpected end of input"
  | Some 'n' -> eat_lit p "null"; Null
  | Some 't' -> eat_lit p "true"; Bool true
  | Some 'f' -> eat_lit p "false"; Bool false
  | Some '"' ->
      p.pos <- p.pos + 1;
      Str (parse_string_body p)
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        Arr []
      end
      else begin
        let items = ref [ parse_value p ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          items := parse_value p :: !items;
          skip_ws p
        done;
        eat p ']';
        Arr (List.rev !items)
      end
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws p;
          eat p '"';
          let k = parse_string_body p in
          skip_ws p;
          eat p ':';
          let v = parse_value p in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          fields := field () :: !fields;
          skip_ws p
        done;
        eat p '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> perror p (Printf.sprintf "unexpected %C" c)

let of_string s =
  let p = { text = s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos < String.length s then Error (Printf.sprintf "trailing input at offset %d" p.pos)
      else Ok v
  | exception Parse_error (pos, what) -> Error (Printf.sprintf "at offset %d: %s" pos what)
