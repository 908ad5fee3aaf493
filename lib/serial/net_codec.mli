(** The fast, compact ".NET production" serializer: the system wire.

    A tag byte per node and zigzag varints for integers, in positional
    shapes.  They carry every DGC message, snapshot summary and socket
    envelope.  A wire type describes its shape once, as a {!shape}: a
    sequence of [record]/[variant]/[int]/[bool]/[str]/[list]/[packed]/[raw]
    events.  A record writes its tag and arity, a case of a sum type
    its tag, case index and arity; no record or field name ever crosses
    the wire, because the reader already knows which field comes next.
    The same shape runs into a byte writer ({!encode_shape}) or a pure
    byte counter ({!size}), so the bytes a message is charged for and
    the bytes it is sent as can never drift apart.  Next to each shape
    the type keeps a direct reader over {!Read}, which checks every
    tag, arity and case index and the absence of trailing bytes. *)

(** {1 Streaming writer} *)

type sink
(** Where a shape's events go: bytes or a byte count.  Events are
    prefix-ordered: [record s k] and [variant s i k] are followed by
    [k] values; [list s k] by [k] values. *)

type 'a shape = sink -> 'a -> unit

val record : sink -> int -> unit
(** [record s k]: a record of [k] fields. *)

val variant : sink -> int -> int -> unit
(** [variant s i k]: case [i] of a sum type, with [k] fields. *)

val int : sink -> int -> unit

val bool : sink -> bool -> unit

val str : sink -> string -> unit

val list : sink -> int -> unit
(** [list s k]: a list of [k] items. *)

val packed : sink -> int -> unit
(** [packed s k]: a run of [k] non-negative integers with no per-item
    tag — one tag and the count, then [k] unsigned LEB128 varints.
    How a wire type sends a table of ids, counters and ticks, several
    per entry: none of them has a sign to spend a bit on. *)

val raw : sink -> int -> unit
(** One untagged item of a {!packed} run.
    @raise Invalid_argument on a negative int. *)

val encode_shape : 'a shape -> 'a -> string
(** The value's bytes, written into one reused module-level buffer.  A
    shape must not itself call [encode_shape] or {!size}. *)

val offset : sink -> int
(** Bytes the sink has taken so far in the value being written: where
    the next event's bytes start, for a writer that indexes its own
    output. *)

val size : 'a shape -> 'a -> int
(** [String.length (encode_shape shape v)], counted without writing a
    byte, building a tree or allocating. *)

(** {1 Direct reader}

    The inverse of a shape, read straight off the bytes: every tag,
    arity and case index and the absence of trailing bytes is checked,
    and any deviation raises {!Wire.Malformed}. *)

module Read : sig
  type t

  val of_string : string -> t

  val pos : t -> int
  (** Offset of the next byte to read. *)

  val record : t -> int -> unit
  (** A record with exactly this many fields. *)

  val variant : t -> int array -> int
  (** A case of a sum type whose arities are [arities], indexed by
      case: returns the case index, which must be in range and whose
      field count must match. *)

  val int : t -> int

  val bool : t -> bool

  val str : t -> string

  val list : t -> int
  (** A list; returns its length. *)

  val packed : t -> int
  (** A packed run; returns its item count, which is at most the bytes
      left (every item takes one). *)

  val raw : t -> int
  (** One item of a packed run: never negative. *)

  val finish : t -> unit
  (** No trailing bytes. *)

  val run : (t -> 'a) -> string -> 'a
  (** Read one value that is the whole input: the inverse of
      {!encode_shape}. *)

  val fail : t -> string -> 'a
  (** Raise {!Wire.Malformed} at the current offset. *)
end
