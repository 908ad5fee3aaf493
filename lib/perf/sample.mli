(** The uniform benchmark sample record every section reports
    through: one named measurement with descriptive statistics over
    its repetitions, a direction (is lower or higher better?), a
    noise class, an optional SLO ceiling and a digest of the
    configuration that produced it. *)

module Json = Adgc_util.Json

type direction =
  | Lower_better  (** latencies, durations, message counts *)
  | Higher_better  (** throughputs, speedups *)

(** How the comparator should treat the value. *)
type klass =
  | Timing
      (** host-wall-clock dependent; gated loosely and scaled by the
          relax factor on slow/1-core runners *)
  | Deterministic
      (** a pure function of the seed (sim ticks, message counts,
          bytes); gated tightly and never relaxed *)

type t = {
  name : string;  (** e.g. ["tracer.trace.dense_ms.10000"] *)
  unit_ : string;  (** "ms", "ticks", "msgs", "ops/s", ... *)
  reps : int;
  median : float;
  mean : float;
  stddev : float;
  min : float;
  p99 : float;
  direction : direction;
  klass : klass;
  slo : float option;
      (** hard ceiling (in [unit_], [Lower_better] semantics): the
          comparator flags the sample even without a baseline entry *)
  config_digest : string;
}

val of_values :
  name:string ->
  unit_:string ->
  direction:direction ->
  klass:klass ->
  ?slo:float ->
  config_digest:string ->
  float list ->
  t
(** Build a sample from raw per-repetition measurements.  Raises
    [Invalid_argument] on an empty list. *)

val scalar :
  name:string ->
  unit_:string ->
  direction:direction ->
  klass:klass ->
  ?slo:float ->
  config_digest:string ->
  float ->
  t
(** A single-measurement sample ([reps = 1], all statistics equal). *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
