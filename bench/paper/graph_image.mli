(** Whole-heap snapshot images for serialization (Experiment E2).

    The paper measures the cost of {e serializing} a process's object
    graph (snapshot step), on Rotor and on production .NET, with and
    without stubs.  This module lowers a heap to the neutral document
    model so either codec can do the real encoding work, and can read
    an image back for integrity checks. *)

open Adgc_rt

val of_process : ?include_stubs:bool -> Process.t -> Sval.t
(** Lower the full heap: one record per object (owner, serial,
    payload, fields), and with [include_stubs] one record per stub
    table entry, mirroring the paper's "every object containing an
    additional remote reference (additional 10 000 stubs)" setup. *)

val object_count : Sval.t -> int option
(** Number of object records in an image (sanity checks in tests). *)
