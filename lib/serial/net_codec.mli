(** The fast, compact ".NET production" serializer: the system wire.

    One encoding carries every DGC message, snapshot summary, socket
    envelope and comparator body: packed runs of unsigned LEB128
    varints, plus a length-prefixed string where a run cannot hold the
    data (an opaque body, a counter's name).  A run is one tag and its
    item count, then the items with no tag of their own; no record or
    field name and no case header crosses the wire, because the reader
    already knows which item comes next.  A wire type describes its
    layout once, as a {!shape}: a sequence of {!packed}/{!raw}/{!str}
    events.  An id is [[owner; serial]] and a reference key
    [[src; owner; serial]], written by [Oid.emit] and [Ref_key.emit]
    everywhere one travels.  The same shape runs into a byte writer
    ({!encode_shape}) or a pure byte counter ({!size}), so the bytes a
    message is charged for and the bytes it is sent as can never drift
    apart.  Next to each shape the type keeps a direct reader over
    {!Read}, which checks every tag, count and kind and the absence of
    trailing bytes. *)

(** {1 Streaming writer} *)

type sink
(** Where a shape's events go: bytes or a byte count.  [packed s k]
    is followed by [k] {!raw} items. *)

type 'a shape = sink -> 'a -> unit

val packed : sink -> int -> unit
(** [packed s k]: a run of [k] non-negative integers with no per-item
    tag — one tag and the count, then [k] unsigned LEB128 varints.
    How a wire type sends its ids, counters and ticks, several per
    entry: none of them has a sign to spend a bit on. *)

val raw : sink -> int -> unit
(** One untagged item of a {!packed} run.
    @raise Invalid_argument on a negative int. *)

val items : sink -> string -> unit
(** Items of a {!packed} run already in their wire form: unsigned
    LEB128 varints back to back, as a reader's {!Read.since} returns
    them.  Their bytes go out as they are, and a counting sink adds
    their length: sizing them costs O(1). *)

val str : sink -> string -> unit
(** A tagged, length-prefixed string, outside any run. *)

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

    The inverse of a shape, read straight off the bytes: every tag and
    count and the absence of trailing bytes is checked, and any
    deviation raises {!Wire.Malformed}. *)

module Read : sig
  type t

  val of_string : string -> t

  val pos : t -> int
  (** Offset of the next byte to read. *)

  val str : t -> string

  val packed : t -> int
  (** A packed run; returns its item count, which is at most the bytes
      left (every item takes one). *)

  val raw : t -> int
  (** One item of a packed run: never negative. *)

  val since : t -> int -> string
  (** [since t from]: the bytes read from offset [from] ({!pos} then)
      up to now — items read with {!raw}, for {!items} to write back. *)

  val entries : t -> int -> fixed:int -> width:int -> string -> int
  (** [entries t k ~fixed ~width what]: the number of [width]-item
      entries in [k] items that start with [fixed] others.  Fewer than
      [fixed] items, or a part entry, is a ragged [what] run:
      malformed. *)

  val finish : t -> unit
  (** No trailing bytes. *)

  val run : (t -> 'a) -> string -> 'a
  (** Read one value that is the whole input: the inverse of
      {!encode_shape}. *)

  val fail : t -> string -> 'a
  (** Raise {!Wire.Malformed} at the current offset. *)
end
