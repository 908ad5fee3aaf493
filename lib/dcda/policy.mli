(** Detector policy knobs.

    The paper leaves candidate selection to "efficient heuristics from
    the literature"; this policy implements the natural one its §2.1
    sketches — a scion whose target is not locally reachable and has
    not been invoked for a while is suspected of belonging to a
    distributed garbage cycle — plus rate limiting, an optional hop
    budget, and the scion-deletion mode ablated by experiment E11. *)

type deletion_mode =
  | Arrival_only
      (** delete only the scion the concluding CDM arrived on — the
          paper's minimal action; mutually-linked cycles then need
          further detections to unravel completely *)
  | All_local
      (** delete every proven scion owned by the concluding process —
          still purely local, converges in one acyclic-DGC cascade *)
  | Broadcast
      (** additionally notify the other owners of proven scions *)

val deletion_mode_name : deletion_mode -> string

type scan_order =
  | Sorted  (** always scan candidates in key order *)
  | Rotating
      (** resume after the last initiated candidate, wrapping — under
          more eligible candidates than [max_per_scan] this guarantees
          every scion is eventually tried (no starvation) *)

type t = {
  idle_threshold : int;
      (** minimum simulated time since the last invocation through a
          scion before it can become a candidate *)
  scan_period : int;  (** how often each process scans for candidates *)
  snapshot_period : int;  (** how often each process re-summarizes *)
  max_per_scan : int;  (** candidate initiations per scan *)
  cooldown : int;  (** do not re-initiate from the same scion sooner *)
  ttl : int option;  (** optional CDM hop budget *)
  deletion_mode : deletion_mode;
  early_ic_check : bool;
      (** the paper's §3.2 optimization: before forwarding a
          derivation, match it locally and abort on an IC conflict
          instead of letting the next hop discover it — saves the
          doomed message; "not required to maintain safety" *)
  scan_order : scan_order;
  backoff : bool;
      (** double the per-candidate cooldown after every fruitless
          initiation (capped at 32x) — stops candidates pinned by
          long-lived external references (Fig. 1) from burning CDMs at
          every scan *)
  cdm_budget : int;
      (** work allowance per detection: each forwarded CDM costs one
          and fan-outs split the remainder (randomly skewed so retries
          explore different derivation subtrees), bounding a single
          detection to at most this many messages even on densely
          connected garbage, where unbounded fan-out is combinatorial
          (experiment E18) *)
  candidate_audit_period : int;
      (** period of [Kernel.Maintain_candidates], a duty that does
          nothing: kept only for the benchmark's hand copy of the
          duty lanes ([bench/e2e/rep.ml]) *)
}

val default : t
(** idle 2000, scan 3000, snapshot 2500, 4 per scan, cooldown 10000,
    no TTL, [All_local]. *)

val aggressive : t
(** Short periods and thresholds — for tests that want detections to
    happen quickly. *)
