(** Minimal JSON: AST, deterministic printer and parser.

    The printer is byte-stable: the same document always renders the
    same string, which the deterministic-replay tests rely on.  Use
    {!obj_sorted} when field order should not depend on construction
    order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val obj_sorted : (string * t) list -> t
(** [Obj] with fields sorted by name. *)

val of_float : float -> t
(** [Float f], except NaN and infinities become [Null] (JSON has no
    spelling for them). *)

val to_string : t -> string
(** Compact, single-line, deterministic rendering. *)

val to_string_pretty : t -> string
(** Indented rendering (trailing newline); same escaping rules. *)

val of_string : string -> (t, string) result
