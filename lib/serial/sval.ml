type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Packed of int list
  | Record of string * (string * t) list

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Unit, _ -> -1
  | _, Unit -> 1
  | Bool x, Bool y -> Bool.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Int.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float x, Float y -> Float.compare x y
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | List x, List y -> List.compare compare x y
  | List _, _ -> -1
  | _, List _ -> 1
  | Packed x, Packed y -> List.compare Int.compare x y
  | Packed _, _ -> -1
  | _, Packed _ -> 1
  | Record (nx, fx), Record (ny, fy) ->
      let c = String.compare nx ny in
      if c <> 0 then c
      else
        List.compare
          (fun (ka, va) (kb, vb) ->
            let c = String.compare ka kb in
            if c <> 0 then c else compare va vb)
          fx fy

let equal a b = compare a b = 0

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%h" f
  | Str s -> Format.fprintf ppf "%S" s
  | List l ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        l
  | Packed l ->
      Format.fprintf ppf "[|@[%a@]|]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Format.pp_print_int)
        l
  | Record (name, fields) ->
      let pp_field ppf (k, v) = Format.fprintf ppf "%s=%a" k pp v in
      Format.fprintf ppf "%s{@[%a@]}" name
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_field)
        fields

let rec size_nodes = function
  | Unit | Bool _ | Int _ | Float _ | Str _ | Packed _ -> 1
  | List l -> List.fold_left (fun acc v -> acc + size_nodes v) 1 l
  | Record (_, fields) ->
      List.fold_left (fun acc (_, v) -> acc + size_nodes v) 1 fields
