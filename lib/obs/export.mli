(** Exporters: Chrome [trace_event] JSON, JSONL, span digests and the
    stable metrics document.

    Everything here is deterministic — same spans/stats in, same
    bytes out — which is what the deterministic-replay regression
    test pins down. *)

module Json = Adgc_util.Json

val chrome_trace : Span.t -> Json.t
(** A [{traceEvents: [...]}] document of [ph="X"] complete events
    loadable in [about:tracing] / Perfetto.  [ts]/[dur] are sim
    ticks; each simulated process is one [tid] under [pid] 0; span
    ids and parent links ride in [args]. *)

val jsonl : Span.t -> string
(** One JSON object per line, oldest span first. *)

val span_digest : Span.t -> string
(** Hex digest of {!jsonl}: a compact fingerprint of the whole span
    timeline.  Kept for [test_replay], which pins the digests of its
    scenarios so an ordering change cannot pass unseen, and for the
    sim and obs suites' same-seed comparisons. *)

val percentiles :
  ?ps:float list -> Adgc_util.Stats.t -> string -> (float * float) list option
(** [(p, value)] pairs (default ps = [\[50; 90; 99\]]) extracted from
    the named observed histogram via
    {!Adgc_util.Stats.histogram_percentile}; [None] when the
    histogram was never observed.  This is the API the perf harness
    draws its latency-percentile series (e.g. p99
    [dcda.detection_latency]) from. *)

val metrics_document : ?meta:(string * Json.t) list -> Adgc_util.Stats.t -> Json.t
(** [{schema_version; meta; stats}] with all keys sorted.  Validated
    against [test/metrics_schema.json]. *)
