(** The fast, compact ".NET production" document serializer.

    Writes any {!Sval.t} self-describingly, a tag byte per node and
    zigzag varints for integers: named records, each distinct record or
    field name written once per document and referred to by index after
    that — the standard tricks of an efficient binary remoting
    formatter.  It round-trips every {!Sval.t} exactly; in the E2
    benchmark it reproduces the roughly two-orders-of-magnitude speedup
    the paper reports for production .NET serialization over Rotor's
    ({!Rotor_codec}).

    Its string and packed-run tags (5 and 8) are the system wire's
    ({!Adgc_serial.Net_codec}), which has only those two; the other
    node kinds take tags of their own. *)

module Wire = Adgc_serial.Wire

val encode : Sval.t -> string

val decode : string -> Sval.t
(** @raise Wire.Malformed on any corrupted input. *)

(** {1 Fixed-width fields}

    How a float travels: its IEEE bits as 8 little-endian bytes. *)

val write_int64 : Wire.Writer.t -> int64 -> unit

val read_int64 : Wire.Reader.t -> int64

val write_float : Wire.Writer.t -> float -> unit

val read_float : Wire.Reader.t -> float
