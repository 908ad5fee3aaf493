(** One OS process of the socket-backed driver.

    A node builds the {e whole} cluster from the shared
    {!Scenario.t} spec but is authoritative for exactly one rank: only
    that rank's duty timers run here, and only envelopes addressed to
    it are delivered here.  Peer ranks' replica state stays frozen at
    bootstrap — it exists so {!Adgc_rt.Dispatch} finds registered
    behaviours and ids without a remote lookup.

    Remote-bound envelopes are intercepted by the
    {!Adgc_rt.Network.set_transport} hook and shipped as
    {!Envelope.Net_msg} frames; self-sends keep the simulated timed
    path.  Wall clock drives simulated time: tick [k] is
    [k * tick_us] microseconds after the coordinator's [Start], and
    the node advances its scheduler with [Cluster.run_until] to match
    — so periodic machinery (duty timers, export retries, batch
    flushes) runs exactly as in the one-process simulator.

    Peer mesh: rank [i] dials every rank [j < i] and accepts from
    ranks [> i]; the dialer speaks first ([Hello]).  A broken link is
    redialed with capped exponential backoff by whichever side is the
    dialer; on reconnect the last {!val-ring} outbound envelopes are
    replayed — duplicates are refused by the receiver's
    [Process.note_delivery], which is precisely what the fault tests
    assert. *)

val coord_path : dir:string -> string
(** Where the coordinator listens; every node dials it. *)

type config = {
  rank : int;
  scenario : Scenario.t;
  dir : string;  (** sockets + logs live here *)
  tick_us : int;  (** wall microseconds per simulated tick *)
  max_ticks : int;  (** refuse to simulate past this, [Start]-relative *)
}

val main : config -> unit
(** Run until the coordinator's [Shutdown] (or [max_ticks]).  Raises on
    setup failure (bad scenario, unreachable coordinator). *)
