(** The CDM algebra (paper, Section 3).

    A cycle-detection message carries two sets of reference entries:

    - the {b source set}: compiled {e dependencies} — every scion the
      detection has relied upon (the candidate scion, each arrival
      scion, and every extra [ScionsTo] dependency discovered along
      the way);
    - the {b target set}: every stub the message has been {e forwarded
      along}.

    Each entry is a reference key paired with the invocation counter
    (IC) observed in the snapshot of the process that contributed the
    entry — scion-side for source entries, stub-side for target
    entries.

    {b Matching} cancels entries present in both sets: a dependency on
    a reference is resolved exactly when the detection has traversed
    that reference's stub.  Two occurrences of the same key with
    different ICs mean a remote invocation slipped between the two
    snapshots — the mutator touched the CDM-Graph — and matching
    reports an abort (paper §3.2, safety rule ii).  A distributed
    garbage cycle is proven when matching leaves both sets empty
    (paper step 25-26: [{{} -> {}}]).

    {b Representation.}  The paper's optimized form (§4) is both the
    wire form and the in-memory one: an algebra {e is} its run of
    entries, the bytes {!emit_entries} writes — per reference, in key
    order, its source IC, its target IC or both under two presence
    bits.  The run is canonical (one run per set of entries), so two
    algebras are equal exactly when their runs are, and writing a CDM's
    algebra is one blit.  Beside it the algebra keeps how many entries are
    source-only, target-only, on both sides and in conflict, so
    {!verdict} and {!cardinal} cost O(1).  Building one merges new
    entries into a run in one pass ({!add}, {!union}, {!derive}); no
    map is ever built. *)

type t

val empty : t

type side = Source | Target

(** {1 Construction} *)

type add_result =
  | Added of t
  | Ic_conflict of { key : Ref_key.t; existing : int; incoming : int }
      (** The same reference was already recorded on that side with a
          different IC: a mutation signal; the detection must abort. *)

val add : t -> side -> Ref_key.t -> ic:int -> add_result
(** Adding an entry that is already present with the same IC returns
    the algebra unchanged (sets, not multisets).
    @raise Invalid_argument on a negative id, or an IC that is negative
    or does not fit in 60 bits: the run could not hold it. *)

val add_exn : t -> side -> Ref_key.t -> ic:int -> t
(** Test helper. @raise Invalid_argument on conflict. *)

val union : t -> t -> (t, side * Ref_key.t) result
(** Entry-wise union of the two source sets and the two target sets —
    the merge a detection performs when combining what two CDMs have
    compiled.  [Error (side, key)] when the same key carries divergent
    counters on one side (the same mutation signal as
    {!add}'s [Ic_conflict]).  Where defined, union is commutative,
    associative and idempotent — pinned by [test_algebra]'s law
    properties.  No detection merges CDMs yet; it is kept for the
    closure-covering detection that ROADMAP item 4 plans. *)

type derivation =
  | Derived of t
  | No_new_info  (** every entry was already there: the paper's step 15 *)
  | Conflicting  (** an entry is already on its side with another IC *)

val derive :
  t -> sources:((Ref_key.t -> ic:int -> unit) -> unit) -> target:Ref_key.t -> ic:int -> derivation
(** One hop's derivation, in one merge pass over the run: [sources]
    calls its argument once per source entry, in strictly ascending
    key order, and the [target] entry joins them at its place.  The
    result is what adding them one by one with {!add} gives:
    [Conflicting] where an add would report [Ic_conflict], and
    [No_new_info] where every add returns the algebra unchanged.  Two
    gauntlet mutants act here: [drop_source_scion] drops the first
    source, and [skip_ic_guards] keeps the counter already there
    instead of reporting a conflict.  [sources] must not itself build
    an algebra.
    @raise Invalid_argument as {!add} does, or on sources out of key
    order. *)

(** {1 Observation} *)

val bindings : t -> side -> (Ref_key.t * int) list
(** One side's entries, ascending key order. *)

val ic : t -> side -> Ref_key.t -> int option

val cardinal : t -> int * int
(** [(|source|, |target|)], in O(1). *)

(** {1 Matching} *)

type matching_result =
  | Match of { unresolved : (Ref_key.t * int) list; frontier : (Ref_key.t * int) list }
      (** [unresolved]: source-only entries (dependencies not yet
          traversed); [frontier]: target-only entries (the wave front
          of the detection), both in ascending key order.  The cycle
          is found when both are []. *)
  | Ic_abort of { key : Ref_key.t; source_ic : int; target_ic : int }

val matching : t -> matching_result
(** One in-order walk; [Ic_abort] names the first conflicting key. *)

type verdict =
  | Conflict  (** [matching] reports [Ic_abort] *)
  | Counts of { unresolved : int; frontier : int }
      (** [matching] reports [Match] with lists of these lengths *)

val verdict : t -> verdict
(** What {!matching} would conclude, in O(1): the algebra keeps its
    unresolved, frontier and conflict counts current as entries are
    added.  Honours the same [skip_ic_guards] mutant guard. *)

(** {1 Wire format and printing} *)

val compact_length : t -> int
(** The number of ints {!emit_entries} writes: four per entry. *)

val emit_entries : t Adgc_serial.Net_codec.shape
(** The paper's optimized representation (§4) on the wire, as the
    items of a packed run ({!Adgc_serial.Net_codec.items}) that the
    carrier opens: [[src; owner; serial; ic * 4 + bits]] per entry, in
    key order, with two presence bits (1 = source, 2 = target, 3 =
    both) under the IC.  A reference in both sets with equal ICs is
    written once, so a concluding CDM (every entry in both sets)
    halves the entry count; one with {e different} ICs cannot be
    shared and is written twice, bits 1 then 2.  The items are the
    algebra's own bytes: writing them is a blit and sizing them O(1). *)

val read_entries : Adgc_serial.Net_codec.Read.t -> int -> t
(** [read_entries r n] reads [n] items of {!emit_entries} back to an
    equal algebra, keeping the bytes as read.  An [n] that is not a
    whole number of entries, presence bits 0, or keys that do not
    strictly ascend is malformed; the one repeat allowed is a
    conflict's, bits 1 then bits 2 with different ICs. *)
