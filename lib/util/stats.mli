(** Named counters and scalar series for experiment reporting.

    A [t] is a registry of monotonically increasing counters (message
    counts, bytes, detections, ...) and of sample series on which
    simple descriptive statistics can be computed.  It is shared by
    the runtime, the detectors and the benchmark harness so every
    experiment reports through the same channel. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 when the counter has never been touched. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

(** {1 Sample series} *)

val record : t -> string -> float -> unit

(** {1 Histograms}

    Fixed-bucket histograms: O(buckets) memory however many samples
    are observed, unlike series which retain every value. *)

type histogram = private {
  buckets : float array;  (** upper bounds, strictly increasing *)
  counts : int array;  (** length [buckets + 1]; last is overflow *)
  mutable sum : float;
  mutable samples : int;
}

val observe : t -> string -> float -> unit
(** Record one sample, registering the histogram with buckets at the
    powers of two from 1 to 2{^19} when the name is unknown.  A value [v] lands in the first bucket with
    [v <= bound], or in the overflow slot. *)

val histogram_opt : t -> string -> histogram option

(** {1 Reporting} *)

val to_json : t -> Json.t
(** Deterministic document: [{counters; histograms; series}] with all
    keys sorted, suitable for byte-stable comparison across runs.
    Series are summarised (count/total/mean/min/max/p50/p99), not
    dumped sample by sample. *)
