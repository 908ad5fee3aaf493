(** Human-readable dumps of the whole system state.

    Omniscient, read-only; used by the CLI's [inspect] mode, examples
    and debugging sessions. *)

val pp_cluster : ?names:Names.t -> Format.formatter -> Adgc_rt.Cluster.t -> unit
(** Every process, then ground truth (live/garbage counts) and
    in-flight message count. *)
