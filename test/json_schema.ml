(* A JSON Schema subset — [type] (a name or a union), [enum],
   [required], [properties], [additionalProperties] and [items] — for
   checking the metrics and results documents against the checked-in
   schemas. *)

module Json = Adgc_util.Json

let member k = function Json.Obj fields -> List.assoc_opt k fields | _ -> None

let type_matches v name =
  match (name, v) with
  | "object", Json.Obj _ -> true
  | "array", Json.Arr _ -> true
  | "string", Json.Str _ -> true
  | "integer", Json.Int _ -> true
  | "number", (Json.Int _ | Json.Float _) -> true
  | "boolean", Json.Bool _ -> true
  | "null", Json.Null -> true
  | _ -> false

let rec validate_at ~schema v ~path =
  let fail fmt = Printf.ksprintf (fun msg -> Error (path ^ ": " ^ msg)) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () =
    match member "type" schema with
    | Some (Json.Str name) -> if type_matches v name then Ok () else fail "expected type %s" name
    | Some (Json.Arr names) ->
        if List.exists (function Json.Str n -> type_matches v n | _ -> false) names then Ok ()
        else fail "no member of the type union matches"
    | Some _ | None -> Ok ()
  in
  let* () =
    match member "enum" schema with
    | Some (Json.Arr allowed) ->
        if List.exists (fun a -> a = v) allowed then Ok () else fail "value not in enum"
    | Some _ | None -> Ok ()
  in
  let* () =
    match (member "required" schema, v) with
    | Some (Json.Arr names), Json.Obj fields ->
        List.fold_left
          (fun acc name ->
            match (acc, name) with
            | Error _, _ -> acc
            | Ok (), Json.Str n ->
                if List.mem_assoc n fields then Ok () else fail "missing required member %S" n
            | Ok (), _ -> acc)
          (Ok ()) names
    | _ -> Ok ()
  in
  let* () =
    match v with
    | Json.Obj fields ->
        let props =
          match member "properties" schema with Some (Json.Obj props) -> props | _ -> []
        in
        let additional = member "additionalProperties" schema in
        List.fold_left
          (fun acc (k, fv) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                let sub_path = path ^ "." ^ k in
                match List.assoc_opt k props with
                | Some sub -> validate_at ~schema:sub fv ~path:sub_path
                | None -> (
                    match additional with
                    | Some (Json.Bool false) -> Error (sub_path ^ ": unexpected member")
                    | Some (Json.Obj _ as sub) -> validate_at ~schema:sub fv ~path:sub_path
                    | Some _ | None -> Ok ())))
          (Ok ()) fields
    | _ -> Ok ()
  in
  match (v, member "items" schema) with
  | Json.Arr items, Some (Json.Obj _ as sub) ->
      let rec go i = function
        | [] -> Ok ()
        | item :: rest -> (
            match validate_at ~schema:sub item ~path:(Printf.sprintf "%s[%d]" path i) with
            | Ok () -> go (i + 1) rest
            | Error _ as e -> e)
      in
      go 0 items
  | _ -> Ok ()

(* [Ok ()], or [Error] naming the first offending path from [$]. *)
let validate ~schema v = validate_at ~schema v ~path:"$"
