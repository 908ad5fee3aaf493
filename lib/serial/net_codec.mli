(** The fast, compact ".NET production" serializer.

    A tag byte per node, zigzag varints for integers, and an interning
    table that writes each distinct record/field name once and then
    refers to it by index — the standard tricks of an efficient binary
    remoting formatter.  Round-trips every {!Sval.t} exactly; in the
    E2 benchmark it reproduces the roughly two-orders-of-magnitude
    speedup the paper reports for production .NET serialization over
    Rotor's.

    The byte format is written in one place, the streaming {!sink}
    below.  A wire type describes its shape once, as a {!shape}: a
    sequence of [record]/[field]/[int]/[bool]/[str]/[list]/[packed]/[raw]
    events.
    The same shape runs into a byte writer ({!encode_shape}) or a pure
    byte counter ({!size}), so the bytes a message is charged for and
    the bytes it is sent as can never drift apart.  Next to each
    shape the type keeps a direct reader over {!Read}, which checks
    the bytes as strictly as a tree decode followed by a match would.
    {!Stream} runs the same shapes and readers with connection-scoped
    interning for sockets.  {!encode}/{!decode} are the {!Sval.t}
    document codec E2 measures; no wire type goes through a tree. *)

include Codec.S

(** {1 Record and field names} *)

module Name : sig
  type t

  val v : string -> t
  (** The name for this text.  Equal texts give the same name; wire
      types make theirs once, at module initialisation, so the writer
      interns them through a small slot array keyed by the name's id
      instead of hashing strings. *)
end

(** {1 Streaming writer} *)

type sink
(** Where a shape's events go: bytes or a byte count.  Events
    are prefix-ordered: [record s n k] is followed by [k] pairs of
    [field] and one value; [list s k] by [k] values. *)

type 'a shape = sink -> 'a -> unit

val record : sink -> Name.t -> int -> unit
(** [record s name k]: a record of [k] fields. *)

val field : sink -> Name.t -> unit

val int : sink -> int -> unit

val bool : sink -> bool -> unit

val str : sink -> string -> unit

val list : sink -> int -> unit
(** [list s k]: a list of [k] items. *)

val packed : sink -> int -> unit
(** [packed s k]: a run of [k] integers with no per-item tag — one tag
    and the count, then [k] zigzag varints.  How a wire type sends a
    table of small integers, several per entry ({!Sval.Packed}). *)

val raw : sink -> int -> unit
(** One untagged integer of a {!packed} run. *)

val encode_shape : 'a shape -> 'a -> string
(** The value's bytes, written into one reused module-level buffer with
    per-message interning.  A shape must not itself call
    [encode_shape] or {!size}. *)

val size : 'a shape -> 'a -> int
(** [String.length (encode_shape shape v)], counted without writing a
    byte, building a tree or allocating in proportion to [v]. *)

(** {1 Direct reader}

    The inverse of a shape, read straight off the bytes with the same
    strictness as [decode] followed by a matching on the tree: every
    tag, record name, field name, field count and the absence of
    trailing bytes is checked, and any deviation raises
    {!Wire.Malformed}. *)

module Read : sig
  type t

  val of_string : string -> t

  val record : t -> Name.t -> int -> unit
  (** A record with exactly this name and field count. *)

  val variant : t -> (Name.t * int) array -> int
  (** A record whose name and field count are one of [cases]; returns
      its index there.  How a sum type reads its constructor. *)

  val field : t -> Name.t -> unit

  val int : t -> int

  val bool : t -> bool

  val str : t -> string

  val list : t -> int
  (** A list; returns its length. *)

  val packed : t -> int
  (** A packed run; returns its item count, which is at most the bytes
      left (every item takes one). *)

  val raw : t -> int
  (** One item of a packed run. *)

  val finish : t -> unit
  (** No trailing bytes. *)

  val run : (t -> 'a) -> string -> 'a
  (** Read one value that is the whole input, with per-message
      interning: the inverse of {!encode_shape}. *)

  val fail : t -> string -> 'a
  (** Raise {!Wire.Malformed} at the current offset. *)
end

(** {1 Per-connection interning}

    {!encode_shape} and {!Read.run} are datagram-shaped: each message
    carries its own interning table, so every frame re-sends every
    name.  A long-lived ordered byte stream (one TCP/Unix-domain
    connection) can do better: hoist the tables to connection scope
    and each distinct record/field name crosses the wire once per {e
    connection}.  The two ends must process frames in transmission
    order with none missing — the transport guarantees that; after a
    reconnect both sides start fresh state.  A {!Wire.Malformed} read
    leaves the reader state unspecified: reset the connection rather
    than attempting to resynchronize. *)

module Stream : sig
  type writer

  val writer : unit -> writer
  (** Fresh per-connection encoder state. *)

  val encode : writer -> 'a shape -> 'a -> string
  (** One frame: the value's bytes, remembering every name written so
      far on this connection. *)

  type reader

  val reader : unit -> reader
  (** Fresh per-connection decoder state. *)

  val read : reader -> (Read.t -> 'a) -> string -> 'a
  (** Read one frame produced by the {e same-position} [encode] on the
      other end; the frame must hold exactly one value.
      @raise Wire.Malformed on corrupted input. *)
end
