(** Low-level byte-oriented reader/writer primitives under the wire's
    shapes ({!Net_codec}).

    The writer wraps [Buffer]; the reader walks a [string] with an
    explicit cursor and raises {!Malformed} on any decoding error,
    carrying the offending offset. *)

exception Malformed of { offset : int; what : string }

val varint_size : int -> int
(** Bytes {!Writer.varint} spends on the value. *)

val uvarint_size : int -> int
(** Bytes {!Writer.uvarint} spends on the value.
    @raise Invalid_argument on a negative int. *)

module Writer : sig
  type t

  val create : ?initial:int -> unit -> t

  val contents : t -> string

  val clear : t -> unit
  (** Forget the contents, keeping the storage for the next value. *)

  val length : t -> int
  (** Bytes written since the last {!clear}. *)

  val byte : t -> int -> unit
  (** Low 8 bits. *)

  val varint : t -> int -> unit
  (** LEB128, zigzag-encoded so negative ints stay small. *)

  val uvarint : t -> int -> unit
  (** Plain LEB128 of a non-negative int: no sign bit, so 64–127 still
      take one byte.  @raise Invalid_argument on a negative int. *)

  val string : t -> string -> unit
  (** Varint length prefix followed by the raw bytes. *)

  val substring : t -> string -> int -> int -> unit
  (** [substring t s pos len]: those bytes of [s], as they are. *)
end

module Reader : sig
  type t

  val of_string : string -> t

  val pos : t -> int

  val at_end : t -> bool

  val remaining : t -> int
  (** Bytes left to read. *)

  val byte : t -> int

  val varint : t -> int

  val uvarint : t -> int
  (** {!Writer.uvarint}'s bytes back: at most nine, and never a value
      past [max_int]. *)

  val string : t -> string

  val since : t -> int -> string
  (** [since t from]: the bytes read from offset [from] up to {!pos}. *)
end
