module Json = Adgc_util.Json

type t =
  | Deliver of { kind : string; src : int; dst : int; nth : int }
  | Drop of { kind : string; src : int; dst : int; nth : int }
  | Snapshot of int
  | Scan of int
  | Lgc of int
  | Send_sets of int
  | Mutate of int

let pp ppf = function
  | Deliver { kind; src; dst; nth } ->
      Format.fprintf ppf "deliver %s p%d->p%d #%d" kind src dst nth
  | Drop { kind; src; dst; nth } -> Format.fprintf ppf "drop %s p%d->p%d #%d" kind src dst nth
  | Snapshot p -> Format.fprintf ppf "snapshot p%d" p
  | Scan p -> Format.fprintf ppf "scan p%d" p
  | Lgc p -> Format.fprintf ppf "lgc p%d" p
  | Send_sets p -> Format.fprintf ppf "send_sets p%d" p
  | Mutate i -> Format.fprintf ppf "mutate #%d" i

let envelope tag kind src dst nth =
  Json.obj_sorted
    [
      ("t", Json.Str tag);
      ("kind", Json.Str kind);
      ("src", Json.Int src);
      ("dst", Json.Int dst);
      ("nth", Json.Int nth);
    ]

let proc_action tag p = Json.obj_sorted [ ("t", Json.Str tag); ("proc", Json.Int p) ]

let to_json = function
  | Deliver { kind; src; dst; nth } -> envelope "deliver" kind src dst nth
  | Drop { kind; src; dst; nth } -> envelope "drop" kind src dst nth
  | Snapshot p -> proc_action "snapshot" p
  | Scan p -> proc_action "scan" p
  | Lgc p -> proc_action "lgc" p
  | Send_sets p -> proc_action "send_sets" p
  | Mutate i -> Json.obj_sorted [ ("t", Json.Str "mutate"); ("index", Json.Int i) ]

let field obj name =
  match obj with
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "action is not an object"

let int_field obj name =
  match field obj name with
  | Ok (Json.Int i) -> Ok i
  | Ok _ -> Error (Printf.sprintf "field %S is not an int" name)
  | Error e -> Error e

let str_field obj name =
  match field obj name with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "field %S is not a string" name)
  | Error e -> Error e

let ( let* ) = Result.bind

let of_json j =
  let* tag = str_field j "t" in
  match tag with
  | "deliver" | "drop" ->
      let* kind = str_field j "kind" in
      let* src = int_field j "src" in
      let* dst = int_field j "dst" in
      let* nth = int_field j "nth" in
      if tag = "deliver" then Ok (Deliver { kind; src; dst; nth })
      else Ok (Drop { kind; src; dst; nth })
  | "snapshot" ->
      let* p = int_field j "proc" in
      Ok (Snapshot p)
  | "scan" ->
      let* p = int_field j "proc" in
      Ok (Scan p)
  | "lgc" ->
      let* p = int_field j "proc" in
      Ok (Lgc p)
  | "send_sets" ->
      let* p = int_field j "proc" in
      Ok (Send_sets p)
  | "mutate" ->
      let* i = int_field j "index" in
      Ok (Mutate i)
  | other -> Error (Printf.sprintf "unknown action tag %S" other)
