(** Accumulates {!Sample.t} records per bench section while a run is
    in flight, then folds them into one {!Results.t} document. *)

type t

val create : smoke:bool -> unit -> t

val add : t -> section:string -> Sample.t -> unit

val config_digest : string list -> string
(** Canonical digest of the configuration facts (sizes, seeds, reps)
    that produced a sample, so a baseline entry measured under a
    different configuration is never silently paired. *)

val document : t -> rev:string -> host:Results.host -> Results.t
