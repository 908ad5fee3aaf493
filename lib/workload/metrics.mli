(** Ground-truth measurement.

    Everything here is omniscient (it inspects all heaps and in-flight
    messages directly) and is used by tests, examples and benches —
    never by the algorithms themselves. *)

type sample = { time : int; objects : int; live : int; garbage : int }

val sample : Adgc_rt.Cluster.t -> sample

val pp_sample : Format.formatter -> sample -> unit

type sampler

val sample_every : Adgc_rt.Cluster.t -> period:int -> sampler
(** Record a sample each [period] ticks (from the next period on).
    Registered with {!Adgc_rt.Cluster.at_teardown}, so tearing the
    cluster down stops the sampler automatically. *)

val samples : sampler -> sample list
(** Oldest first. *)

val stop_sampling : sampler -> unit
(** Idempotent. *)
