(** The slow, faithful-in-spirit "Rotor" serializer.

    Rotor's serialization code was, per the paper, "very inefficient
    (for any purpose)" — a 10 000-object graph took 26 s to snapshot.
    This codec reproduces that cost profile honestly rather than with
    an artificial sleep: it emits a fully self-describing XML-like
    text document with a long type name on {e every} node, escapes the
    payload character by character, indents nested structure, and both
    computes and verifies a whole-document checksum in a separate
    pass.  Decoding runs a real recursive-descent parser over the
    text.

    The format round-trips every {!Sval.t} exactly, as {!Doc_codec}
    does: E2 feeds both the same documents. *)

val encode : Sval.t -> string

val decode : string -> Sval.t
(** @raise Adgc_serial.Wire.Malformed on any corrupted input. *)
