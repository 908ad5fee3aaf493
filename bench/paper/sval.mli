(** Neutral serializable document model.

    Heap images ({!Graph_image}) and benchmark payloads are lowered to
    this self-contained tree before being encoded by one of the codecs
    ({!Rotor_codec}, {!Doc_codec}).  Keeping the model
    independent of the runtime lets the codecs be benchmarked and
    property-tested in isolation, and mirrors the paper's setup where
    the same object graph is fed to two very different serializers. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Packed of int list
      (** A run of plain integers with no per-item framing: how a wire
          type sends a table of small ids, several per entry.  The
          entry width is the reader's to check. *)
  | Record of string * (string * t) list
      (** [Record (type_name, fields)] — the type name is part of the
          document, as in .NET's self-describing serialization. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val size_nodes : t -> int
(** Number of constructors in the tree (a codec-independent measure of
    document size). *)
