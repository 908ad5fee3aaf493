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
    wire form and the in-memory one: a single key-ordered map from each
    reference to its source IC, its target IC, or both — the two
    presence bits.  Beside it the algebra keeps how many entries are
    source-only, target-only, on both sides and in conflict, so
    {!verdict} and {!cardinal} cost O(1), and {!emit_entries} writes
    the map in one in-order pass. *)

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
    the algebra unchanged (sets, not multisets). *)

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

(** {1 Observation} *)

val bindings : t -> side -> (Ref_key.t * int) list
(** One side's entries, ascending key order. *)

val ic : t -> side -> Ref_key.t -> int option

val cardinal : t -> int * int
(** [(|source|, |target|)], in O(1). *)

val equal : t -> t -> bool
(** Keys {e and} ICs on both sides. Used for the paper's
    no-new-information termination rule (step 15); algebras of
    different cardinals are told apart in O(1). *)

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
    items of a packed run ({!Adgc_serial.Net_codec.raw}) that the
    carrier opens: [[src; owner; serial; ic * 4 + bits]] per entry, in
    key order, with two presence bits (1 = source, 2 = target, 3 =
    both) under the IC.  A reference in both sets with equal ICs is
    written once, so a concluding CDM (every entry in both sets)
    halves the entry count; one with {e different} ICs cannot be
    shared and is written twice, bits 1 then 2.  Sizing it allocates
    nothing per entry.
    @raise Invalid_argument on a negative id, or an IC that is negative
    or does not fit in 60 bits. *)

val read_entries : Adgc_serial.Net_codec.Read.t -> int -> t
(** [read_entries r n] reads [n] items of {!emit_entries} back to an
    equal algebra.  An [n] that is not a whole number of entries,
    presence bits 0 or a second IC for an entry already read on the
    same side is malformed. *)
