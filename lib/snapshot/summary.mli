(** Summarized graph description of one process snapshot.

    The paper's "Graph Summarization" (§3): everything the DCDA needs
    to know about a process, with strictly-internal references
    compiled away.  Per scion: the stubs transitively reachable from
    its target ([StubsFrom]) and whether the target is reachable from
    the local root.  Per stub: the scions that transitively lead to it
    ([ScionsTo]) and its local reachability flag ([Local.Reach]).
    Both carry the invocation counters observed at snapshot time —
    the race barrier of §3.2.

    A summary is its serialized bytes — what the paper's processes
    store and its detector reads — plus an index of where each scion
    and stub entry starts.  Lookups binary-search the keys inside the
    bytes, and every accessor reads its field in place; no record form
    of the summary is ever built.  A summary is immutable: once taken
    it never changes, even as the live tables move on.  Detections
    combine CDMs with whatever summary version a process currently
    publishes; staleness is handled by the paper's safety rules, not
    by freshness guarantees.

    {b Wire format}: one {!Adgc_serial.Net_codec.packed} run of
    unsigned varints, as a protocol message is, with no tag inside it:
    [[proc; taken_at; scions; scion...; stubs; stub...]].  A scion is
    [[src; owner; serial; ic; n; (owner, serial)...; last_invoked·2 +
    flag]]: its key, its counter, its StubsFrom run of [n] target ids,
    and [last_invoked] with the target-locally-reachable bit.  A stub
    is [[owner; serial; ic·2 + flag; n; (src, owner, serial)...]]: its
    target, its counter with the [Local.Reach] bit, and its ScionsTo
    run of [n] keys.  Scions ascend strictly by key, stubs by target,
    and so does every StubsFrom and ScionsTo run.  Serials are written
    whole, not as gaps, so every entry's key reads in place. *)

open Adgc_algebra

type t

val of_bytes : string -> t option
(** One validating pass that indexes the bytes.  [None] on any
    deviation from the format: a wrong tag, a truncation, a varint past
    [max_int], a count the run cannot hold, entries or runs that do not
    strictly ascend, a run longer or shorter than its items, or
    trailing bytes. *)

val indexed :
  proc:Proc_id.t ->
  taken_at:int ->
  scion_at:int array ->
  scion_flag:int array ->
  stub_at:int array ->
  string ->
  t
(** The view a writer of these bytes indexed as it wrote them, with no
    second pass: per scion the offsets of its key and of its
    [last_invoked·2 + flag] item, per stub the offset of its target.
    Nothing is checked; {!of_bytes} is the checked way in. *)

val bytes : t -> string
(** The bytes the summary was read from. *)

val proc : t -> Proc_id.t

val taken_at : t -> int
(** Simulated time of the snapshot.  Kept for [Summary_reference],
    which reads a published view back to the record form so the
    snapshot and serial suites can compare it field by field. *)

val counts : t -> int * int
(** [(scions, stubs)], in constant time. *)

(** {1 Scions}

    A scion entry is named by its rank: [0 <= i < fst (counts t)], in
    ascending key order. *)

val find_scion : t -> Ref_key.t -> int option
(** Binary search. *)

val scion_after : t -> Ref_key.t -> int
(** The rank of the first scion whose key is greater than the given
    one; [fst (counts t)] when there is none. *)

val scion_key : t -> int -> Ref_key.t

val scion_ic : t -> int -> int

val target_locally_reachable : t -> int -> bool

val last_invoked : t -> int -> int

val fold_stubs_from : t -> int -> (Oid.t -> 'a -> 'a) -> 'a -> 'a
(** The targets of the stubs reachable from the scion's target, in
    ascending order. *)

(** {1 Stubs}

    Named by rank in ascending target order, like scions. *)

val find_stub : t -> Oid.t -> int option

val stub_target : t -> int -> Oid.t

val stub_ic : t -> int -> int

val local_reach : t -> int -> bool
(** The paper's [Local.Reach] bit. *)

val fold_scions_to : t -> int -> (Ref_key.t -> 'a -> 'a) -> 'a -> 'a
(** The keys of the scions leading to the stub, in ascending order. *)
