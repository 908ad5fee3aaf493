(** The local tracing collector.

    A stop-the-world (per process — the rest of the system keeps
    running) mark-and-sweep that honours the reference-listing
    contract (paper §4):

    - scion targets are extra roots, so remotely referenced objects
      survive even when locally unreachable;
    - the trace reports every remote reference held by live objects,
      which is exactly the information the stub table needs: stubs
      not found live (and neither fresh nor pinned) are dropped and
      will vanish from the next [NewSetStubs]. *)

type report = {
  live : int;  (** objects surviving the sweep *)
  swept : int;  (** objects reclaimed *)
  stubs_live : int;
  stubs_dropped : int;
}

val run : Runtime.t -> Process.t -> report
(** Runs synchronously inside the current event.  Each swept object is
    reported through [rt.on_reclaim] (the test safety hook), after
    [rt.on_pre_sweep] has seen the whole doomed list. *)
