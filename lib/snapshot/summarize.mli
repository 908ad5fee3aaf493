(** Building a {!Summary} from a live process.

    One Tarjan strongly-connected-components condensation of the local
    graph, followed by a dynamic program over the resulting DAG: every
    scion that reaches the same region shares its work (the paper's
    "breadth-first, to minimize re-tracing" concern, taken further),
    and [StubsFrom] for a scion target is the set of stubs reachable
    from its component.  A root trace over the same graph supplies
    [local_reach] and [target_locally_reachable].

    It reads the heap's own dense index: each live object's row of the
    packed adjacency the heap maintains, local targets as dense ids and
    remote targets as stub ranks, through a per-snapshot array indexed
    by remote id and filled from the key-ordered stub table.  Tarjan's
    state, the DP's stub-rank sets and the root flags are int arrays
    and marks in a reused module-level scratch pool.  The summary's
    bytes are written straight from that scratch, and indexed as they
    are written: no record form is built and no second pass reads
    them.

    The result equals one breadth-first trace per distinct scion target
    plus one from the roots — the direct transcription of the paper's
    description, which the test suite keeps as an independent
    reference and checks against this on random and shared-region
    heaps.

    The paper's "lazily and incrementally" (§4) lives in the heap:
    every mutation keeps the dense index and the packed adjacency
    current, so a snapshot starts from them as they stand.

    The summarizer reads the process {e synchronously} inside one
    simulator event, which models the paper's serialize-then-summarize
    pipeline: the snapshot reflects one instant of the process, while
    the rest of the system keeps running. *)

val run : now:int -> Adgc_rt.Process.t -> Summary.t
(** The summary, over bytes in {!Summary}'s wire format. *)
