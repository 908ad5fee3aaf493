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

    {b Wire format} (positional {!Adgc_serial.Net_codec} shapes): a
    record of [proc], [taken_at], the scions and the stubs.  A scion
    is a record of its {!Ref_key.emit} key, its counter, its StubsFrom
    list of {!Oid.emit} targets, the target-locally-reachable bool and
    [last_invoked]; a stub a record of its {!Oid.emit} target, its
    counter, its ScionsTo list of keys and its [Local.Reach] bool.
    Scions ascend strictly by key, stubs by target, and so does every
    StubsFrom and ScionsTo run. *)

open Adgc_algebra

type t

val of_bytes : string -> t option
(** One validating pass that indexes the bytes.  [None] on any
    deviation from the format: a truncation, a wrong tag or field
    count, a negative id, entries or runs that do not strictly ascend,
    or trailing bytes. *)

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
