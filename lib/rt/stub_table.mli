(** Outgoing remote references (stubs) of one process.

    One entry per referenced remote object — the granularity of the
    paper's algebra.  An entry carries the invocation counter that is
    bumped on every remote call through the reference, a pin count
    protecting it during third-party export handshakes, and liveness
    bookkeeping maintained by the local collector:

    - [live] — the last LGC trace found a local object holding the
      reference;
    - [fresh] — the entry was created after the last [NewSetStubs]
      round, so it must be advertised at least once even if the local
      reference was dropped meanwhile (this is what lets the owner
      unpin and subsequently delete the scion instead of leaking it).

    The table is grouped by owner, as {!Scion_table} is grouped by
    holder: one group per owner this process holds a stub for, kept as
    an array of serials in ascending order with the entries beside it.
    A lookup costs a bounds check plus a binary search of that owner's
    group; an insertion in allocation order is an append.  An owner
    with no stubs has no group, and a small group grows one slot at a
    time, so a table spread over many owners with a stub or two each
    stays small.  Every
    walk ({!iter}, {!entries}, {!iter_advertised}) comes out in
    [(owner, serial)] order with no sort, and one owner's share of a
    [NewSetStubs] round is a walk of one group. *)

open Adgc_algebra

type entry = private {
  target : Oid.t;
  mutable ic : int;
  mutable pins : int;
  mutable live : bool;
  mutable fresh : bool;
  mutable created_at : int;
}

type t

val create : owner:Proc_id.t -> t

val ensure : t -> now:int -> Oid.t -> entry
(** Find or create (created entries start [live] and [fresh]).  A
    re-created entry resumes the invocation counter where the swept
    one stopped: counters are monotone per (process, target) identity,
    which the DCDA's IC safety check relies on (a counter that
    restarted below the owner's scion value would wedge that reference
    out of cycle detection forever).
    @raise Invalid_argument if the target is owned by this process. *)

val find : t -> Oid.t -> entry option

val mem : t -> Oid.t -> bool

val bump_ic : t -> Oid.t -> int
(** Increment and return the new value; creates nothing.
    @raise Invalid_argument when the stub is absent. *)

val ic : t -> Oid.t -> int option

val pin : t -> now:int -> Oid.t -> unit
(** Pins create the entry if needed. *)

val unpin : t -> Oid.t -> unit

val mark_all_dead : t -> unit
(** Start of an LGC trace: clear every [live] flag. *)

val mark_live : t -> Oid.t -> unit
(** The LGC found a local reference to this target. *)

val sweep : t -> Oid.t list
(** Remove entries that are neither live, fresh nor pinned; returns
    the removed targets, ascending. *)

val iter_advertised : t -> (Proc_id.t -> int array * int array -> unit) -> unit
(** The next [NewSetStubs] round: each owner with at least one live,
    fresh or pinned stub, by ascending rank, with the serials and the
    invocation counters of those stubs, both in ascending serial order
    (the sets piggyback the counters so owners can re-synchronize
    scions whose invocations were lost in transit).  Each call builds
    new arrays. *)

val advertised_to : t -> Proc_id.t -> int array * int array
(** That owner's share of the next round, as {!iter_advertised} gives
    it; two empty arrays when it has none. *)

val advertises : t -> bool
(** Some stub is live, fresh or pinned, so the next round lists at
    least one target.  Stops at the first such stub. *)

val clear_fresh : t -> unit
(** Call after a [NewSetStubs] round has been computed: every entry
    has now been advertised at least once. *)

val entries : t -> entry list
(** Ascending target order. *)

val iter : t -> (entry -> unit) -> unit
(** Every entry in ascending target order, as {!entries} lists them,
    without building the list.  [f] must not add or remove stubs. *)

val size : t -> int
