(** The canonical, schema-versioned benchmark results document:
    sections of {!Sample.t} records plus the host facts a reader
    needs to judge the numbers (core count, smoke flag, source
    revision).

    The JSON rendering is deterministic — sections and samples are
    sorted by name, floats print canonically — so two same-seed runs
    produce byte-comparable documents. *)

module Json = Adgc_util.Json

type host = { cores : int }

type t = {
  rev : string;  (** source revision, or "dev" outside a checkout *)
  smoke : bool;
  host : host;
  sections : (string * Sample.t list) list;
}

val normalize : t -> t
(** Sections and samples sorted by name. *)

val samples : t -> Sample.t list

val load : string -> (t, string) result

val save : string -> t -> unit

val save_results : dir:string -> t -> string * string
(** Write [<dir>/<rev>.json] and [<dir>/latest.json] (creating [dir]
    if needed); returns both paths. *)
