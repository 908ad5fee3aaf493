(** Random mutator activity.

    Drives a cluster with application-like behaviour: allocations,
    local relinking, root churn, and remote invocations that export
    references (the only way remote references appear, as on the real
    platform).  All choices come from the supplied deterministic
    generator.

    The driver never touches DGC state directly — it only does what a
    program could do, so it is safe to run concurrently with
    collection and detection; the safety property tests do exactly
    that.  The one concession: when a process holds no remote
    reference at all it performs a "name-service lookup" (bootstrap
    wiring to a {e mutator-reachable} object elsewhere), as a real
    application would reconnect to a well-known service; without it
    remote activity would die permanently the first time the last
    remote reference is dropped. *)

type t

val create : cluster:Adgc_rt.Cluster.t -> rng:Adgc_util.Rng.t -> unit -> t
(** Each step picks one action with fixed odds out of 12: allocate and
    link locally 3, remote call through a random held stub 4, remote
    call passing a random local object 2, drop a root 0.5, add a root
    1, clear a random local reference 1.5. *)

val step : t -> unit
(** Perform one random action somewhere in the cluster.  An action
    landing on a crashed process is skipped — the dead run no code. *)

val run : t -> steps:int -> every:int -> unit
(** Schedule [steps] actions, one every [every] ticks starting now
    (does not advance time itself). *)
