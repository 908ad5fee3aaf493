(** Common codec interface and registry.

    Two implementations exist, mirroring the paper's two platforms:

    - {!Rotor_codec} — a verbose, self-describing, checksummed text
      format with per-character escaping.  It is intentionally
      expensive, standing in for Rotor's shared-source serializer
      which the paper measures at ~26 s for a 10 000-object graph.
    - {!Net_codec} — a compact binary format with interned type/field
      names, standing in for the production .NET serializer the paper
      measures at 250-350 ms (~100x faster).

    Both are exact inverses on every {!Sval.t} (property-tested), so
    the E2 benchmark can feed them the same documents. *)

module type S = sig
  val name : string

  val encode : Sval.t -> string

  val decode : string -> Sval.t
  (** @raise Wire.Malformed on any corrupted input. *)
end

type t = (module S)

val name : t -> string

val encode : t -> Sval.t -> string

val decode : t -> string -> Sval.t

val roundtrip : t -> Sval.t -> Sval.t
(** [decode . encode] — used by tests. *)
