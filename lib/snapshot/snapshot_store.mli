(** Snapshot pipeline: summarize, serialize, publish.

    The paper's processes periodically store a snapshot "on disk" and
    the DCDA works on the summarized form.  This store performs the
    honest equivalent: it summarizes the process straight into the
    compact wire format ({!Summarize.run}), reads the bytes back
    from its "disk" and publishes the {!Summary} view over what came
    back — so the detector always reads serialized bytes, never the
    live tables.  Bytes that come back as the very string written keep
    the index the summarizer made as it wrote them; any other bytes
    are indexed afresh by {!Summary.of_bytes}.  The subscribers keep what they are given.  Bytes
    that come back malformed are not published: the summary is
    published as taken and counted in [snapshot.decode_failures].

    Sizes and durations are recorded in the cluster statistics. *)

type t

val create : ?read_back:(string -> string) -> Adgc_rt.Runtime.t -> t
(** [read_back] is what the disk returns for the bytes written — the
    identity by default; a fault hook for modelling a corrupted store. *)

val take : t -> Adgc_rt.Process.t -> Summary.t
(** Snapshot one process now; returns (and publishes) the summary. *)

val take_all : t -> unit

val subscribe : t -> (Summary.t -> unit) -> unit
(** Called with every newly published summary (the detector hooks in
    here). *)
