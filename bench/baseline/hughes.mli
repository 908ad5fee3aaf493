(** Timestamp-propagation collector — the second comparison baseline
    (Hughes 1985, the paper's related work [7]).

    Each process periodically runs a propagation round: stubs
    reachable from local roots get the current time; stubs reachable
    from a scion inherit that scion's timestamp; the stamps travel to
    the owners' scions, which keep the maximum seen.  Live scions are
    refreshed every few rounds; scions kept alive only by garbage
    (including distributed cycles) carry frozen timestamps.  A
    coordinator collects round-completion reports from {e every}
    process and broadcasts the {e global minimum} as a threshold:
    scions stamped below it are garbage.

    Simplifications against the original, documented for honesty:
    Hughes computes the exact propagation frontier with a distributed
    termination-detection protocol; we bound propagation depth with a
    configurable slack (sound for graphs whose root-to-scion distance
    is below it) and assume reliable delivery during rounds (run it
    with loss 0 — the original is not loss-tolerant either, which is
    part of the critique).

    What this baseline is {e for}: demonstrating the paper's central
    criticism — the threshold needs all processes, so one silent or
    crashed process freezes distributed collection globally
    (experiment E12), whereas the DCDA needs only the cycle's own
    processes. *)

open Adgc_algebra

type t

val install :
  ?round_period:int ->
  ?depth_slack:int ->
  Adgc_rt.Cluster.t ->
  t
(** Attach a Hughes instance to every process (its [on_ext] hook; a
    body {!Hmsg.read} rejects is dropped and counted under
    ["hughes.malformed"]) and start the periodic rounds and the
    coordinator (process 0), until {!stop} or
    {!Adgc_rt.Cluster.teardown}.  Runs beside the acyclic collector
    of a bare cluster or of a sim configured with [No_detector].
    [round_period] defaults to 500 ticks; [depth_slack] — how many
    round-periods of timestamp lag a live scion may accumulate — to
    [4 * n_procs]. *)

val stop : t -> unit

val threshold : t -> int
(** The last global minimum broadcast (-1 before the first). *)

val stalls : t -> int
(** Coordinator rounds that could not advance the threshold because
    some process had not reported — the measurable cost of requiring
    everyone. *)

val scion_stamp : t -> proc:int -> Ref_key.t -> int option
(** Inspect a scion's current timestamp (tests). *)
