(** Dense-integer indexing primitives for hot graph traversals.

    The runtime's tracing and summarization loops spend their time
    asking "have I seen this object?" and "what do I know about this
    object?".  Answering through [Oid.Set] / [Oid.Tbl] costs a
    comparison chain or a hash per query and allocates on every
    insertion.  This module provides the classic alternative: intern
    each key once into a dense integer id, then answer every
    subsequent query with an array access.

    - {!Interner} is an append-only key <-> dense-int bijection.  Ids
      are assigned in interning order, stay stable for the interner's
      lifetime, and index plain arrays directly.
    - {!Mark} is a visited-set over dense ids whose [clear] is O(1):
      each slot stores the epoch at which it was last marked, and
      clearing just bumps the current epoch.  Reusing one [Mark]
      across millions of traversals costs no allocation and no
      per-object reset.

    Both structures grow transparently and are deliberately free of
    any dependency on the object algebra, so they can serve any keyed
    workload (OIDs, ref-keys, process ids, ...). *)

(** Epoch-marked bitset over dense integer ids. *)
module Mark : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is only a size hint (default 64); the set grows on
      demand. *)

  val clear : t -> unit
  (** Forget every mark in O(1) (epoch bump — no memory is touched). *)

  val mark : t -> int -> bool
  (** Mark an id; [true] iff it was not yet marked this epoch.  Grows
      the backing store when the id is beyond current capacity.
      @raise Invalid_argument on a negative id. *)

  val is_marked : t -> int -> bool
  (** O(1); ids beyond capacity are unmarked. *)

  val capacity : t -> int
end

(** Growable int-packed adjacency over dense row ids.

    Each row is a chain of fixed-size blocks inside one flat [int
    array]: adding an edge writes one slot, iterating a row touches
    only that array, and a graph with millions of edges costs a
    handful of arrays rather than millions of boxed cells.  Blocks
    freed by {!remove} / {!clear_row} go on a free list and are
    recycled, so a churning graph's footprint tracks its live edge
    count.  Values are arbitrary ints (negative included), letting
    callers pack tagged ids — the heap tracer stores local dense ids
    as [>= 0] and remote interner ids as [-(rid+1)]. *)
module Csr : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is a row-count hint; rows and edge storage both grow
      on demand. *)

  val add : t -> int -> int -> unit
  (** Append a value to a row (multiset semantics — duplicates are
      kept), making the row addressable first (rows are dense external
      ids, e.g. from an {!Interner}).
      @raise Invalid_argument on a negative row. *)

  val remove : t -> int -> int -> bool
  (** Remove one occurrence of the value from the row; [false] when
      absent.  Order within the row is not preserved (the last value
      is swapped into the hole). *)

  val clear_row : t -> int -> unit
  (** Empty the row, recycling all its blocks. *)

  val iter : t -> int -> (int -> unit) -> unit
  (** All values of the row, blocks in chain order. *)

  val reset : t -> unit
  (** Empty every row and return all blocks to the allocator (row
      arrays keep their capacity). *)

  val words : t -> int
  (** Words held by the backing arrays — the live-memory proxy the
      scale benches record. *)
end

(** Append-only interner assigning dense ids in [0, size) to keys. *)
module Interner (H : Hashtbl.HashedType) : sig
  type t

  val create : ?capacity:int -> unit -> t

  val size : t -> int
  (** Number of interned keys; also the next id to be assigned. *)

  val intern : t -> H.t -> int
  (** Id of the key, interning it first when new.  Ids are assigned
      consecutively from 0 and never change or get recycled. *)

  val find : t -> H.t -> int option
  (** Id of an already-interned key. *)

  val key : t -> int -> H.t
  (** Inverse of {!intern}.
      @raise Invalid_argument when the id was never assigned. *)

end
