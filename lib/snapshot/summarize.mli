(** Building a {!Summary} from a live process.

    One Tarjan strongly-connected-components condensation of the local
    graph, followed by a dynamic program over the resulting DAG: every
    scion that reaches the same region shares its work (the paper's
    "breadth-first, to minimize re-tracing" concern, taken further),
    and [StubsFrom] for a scion target is the set of remote references
    reachable from its component.  A separate root trace supplies
    [local_reach] and [target_locally_reachable].  Runs on the heap's
    persistent dense index: CSR adjacency, int-array Tarjan state and a
    reused module-level scratch pool.  The summary's bytes are written
    straight from that scratch: no record form is built.

    The result equals one breadth-first trace per distinct scion target
    plus one from the roots — the direct transcription of the paper's
    description, which the test suite keeps as an independent
    reference and checks against this on random and shared-region
    heaps.

    The paper's "lazily and incrementally" (§4) lives in the heap: the
    packed adjacency is maintained by every mutation and the dense
    index is resynchronized only when the object population changed.

    The summarizer reads the process {e synchronously} inside one
    simulator event, which models the paper's serialize-then-summarize
    pipeline: the snapshot reflects one instant of the process, while
    the rest of the system keeps running. *)

val encode : now:int -> Adgc_rt.Process.t -> string
(** The summary's bytes, in {!Summary}'s wire format. *)

val run : now:int -> Adgc_rt.Process.t -> Summary.t
(** The summary over {!encode}'s bytes. *)
